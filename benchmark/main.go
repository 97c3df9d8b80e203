// Command benchmark is the repo's one benchmark: five workloads, the
// end-to-end metrics a user of the simulator or of simd would see, and a
// per-layer ladder that says where each workload's host time goes. See
// README.md beside this file and BENCHMARK.json at the repo root.
//
//	go run ./benchmark -workload <name|all> -seed <n> [-seconds s] [-trace 0|1] [-repeat k]
//
// One workload runs per process. The last line of standard output is
// one JSON object {correct, attempted, failed, metrics}; with -trace 0
// the metrics are the end-to-end ones, with -trace 1 the per-layer ones.
// Any failed operation or byte mismatch makes the exit code non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// processStart is when this process began, as near as Go code can see
// it; setup_s is measured from here.
var processStart = time.Now()

type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics in BENCHMARK.json order. Every
// workload reports every one: an "operation" is one full simulation
// (parse, canon, run, render) on the sim workloads and one HTTP request
// on the serve workloads. The two times are CPU time of this process
// (user + system, every thread), not wall-clock time, and op_cost_us is
// that CPU time measured against the yardstick of refwork.go run beside
// each operation: the shared host the benchmark is checked on slows
// memory-bound code by a quarter for minutes at a time, and now and then
// takes the CPU away altogether. The raw CPU and wall-clock figures are
// the host.* per-layer metrics, reported and never gated.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_cost_us", "us"},
	{"allocs_per_op", "count"},
	{"rss_mb", "MB"},
	{"paper_err_max_pct", "%"},
	{"ok_share", "ratio"},
}

// perLayer lists the per-layer metrics in BENCHMARK.json order. A traced
// run reports every one; a metric whose layer the workload bypasses
// reads 0.
var perLayer = []metricDef{
	{"host.setup_wall_s", "s"}, {"host.op_cpu_us", "us"}, {"host.op_p50_us", "us"}, {"host.op_tail_us", "us"},
	{"host.ops_per_s", "1/s"}, {"host.peak_rss_mb", "MB"}, {"host.ref_us", "us"}, {"host.steal_pct", "%"},

	{"sim.events", "count"}, {"sim.rounds", "count"}, {"sim.boundary_ops", "count"},
	{"sim.serial_permille", "count"}, {"sim.window_width_ns_p50", "ns"},
	{"sim.event_host_ns", "ns"}, {"sim.at_ns", "ns"}, {"sim.switch_ns", "ns"},
	{"sim.lane_speedup_x2", "ratio"},

	{"network.messages", "count"}, {"network.hops", "count"}, {"network.payload_bytes", "count"},
	{"network.nic_stalled", "count"}, {"network.link_qdelay_ns_p99", "ns"},
	{"network.send_ns", "ns"}, {"network.share", "ratio"},

	{"pami.advances", "count"}, {"pami.items_served", "count"}, {"pami.ams_served", "count"},
	{"pami.lock_contended", "count"}, {"pami.starve_max_ns", "ns"},
	{"pami.useful_advance_ratio", "ratio"},

	{"armci.init_ms", "ms"}, {"armci.malloc_ms", "ms"}, {"armci.ops_ms", "ms"},
	{"armci.finalize_ms", "ms"},
	{"armci.ops", "count"}, {"armci.rmw", "count"}, {"armci.fences", "count"},
	{"armci.regioncache_entries", "count"}, {"armci.ep_created", "count"},
	{"armci.get_ns", "ns"}, {"armci.put_ns", "ns"}, {"armci.acc_ns", "ns"},
	{"armci.fetchadd_ns", "ns"}, {"armci.gets_ns", "ns"}, {"armci.puts_ns", "ns"},

	{"ga.get_ns", "ns"}, {"ga.acc_ns", "ns"}, {"ga.readinc_ns", "ns"},
	{"nwchem.tasks", "count"}, {"nwchem.counter_wait_share", "ratio"}, {"nwchem.iter_ms", "ms"},

	{"scenario.canon_hash_ns", "ns"}, {"scenario.render_ns", "ns"},
	{"sweep.map_overhead_us", "us"},

	{"serve.lru_get_ns", "ns"}, {"serve.lru_put_ns", "ns"},
	{"serve.store_get_us", "us"}, {"serve.store_put_us", "us"},
	{"serve.http_hit_us", "us"}, {"serve.http_disk_us", "us"}, {"serve.http_cold_ms", "ms"},
	{"serve.http_overhead_us", "us"},
	{"serve.hit_ratio", "ratio"}, {"serve.disk_ratio", "ratio"},
	{"serve.exec_count", "count"}, {"serve.retry_429", "count"}, {"serve.allocs_per_req", "count"},

	{"cluster.ring_owner_ns", "ns"}, {"cluster.fill_us", "us"},
	{"cluster.proxied_share", "ratio"}, {"cluster.proxy_hop_us", "us"},

	{"ladder.residual_share", "ratio"}, {"trace_overhead_pct", "%"},
}

// workloads maps the fixed workload names to their runners, in
// BENCHMARK.json order.
var workloads = []struct {
	name string
	run  func(e *env) (*outcome, error)
}{
	{"amo_storm", func(e *env) (*outcome, error) { return runSim(e, amoCase(e)) }},
	{"rdma_stream", func(e *env) (*outcome, error) { return runSim(e, rdmaCase(e)) }},
	{"scf_proxy", func(e *env) (*outcome, error) { return runSim(e, scfCase(e)) }},
	{"serve_read_mix", runReadMix},
	{"serve_write_mix", runWriteMix},
}

// env is what one workload run is given.
type env struct {
	workload string
	seed     uint64
	seconds  float64 // length of the timed part
	trace    bool
	short    bool // reduced sizes: the test's check path, never timed
	// updateGolden rewrites the workload's pinned digest instead of
	// checking it.
	updateGolden bool
	outDir       string // trace files and scratch stores go here
	tr           *tracer
	ys           *yardstick
}

// timed is the length of the timed part as a duration.
func (e *env) timed() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// outcome is what a workload run hands back for reporting.
type outcome struct {
	attempted, failed int
	failures          []string // first few failure reasons, for the log
	e2e               map[string]float64
	layer             map[string]float64
	samples           map[string]int // sample count behind each timing
	notes             []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{}}
}

// fail records one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// stamp says where and on what a number was measured.
type stamp struct {
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	Samples    map[string]int `json:"samples,omitempty"`
}

func newStamp(e *env) stamp {
	return stamp{Workload: e.workload, Seed: e.seed, Seconds: e.seconds, Trace: e.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit()}
}

// commit is the checkout's git revision, or "unknown" outside a git
// checkout (the benchmark driver's copy is not one).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne runs one workload in this process, prints its metrics and
// returns the result line.
func runOne(e *env) (resultLine, error) {
	var run func(*env) (*outcome, error)
	for _, w := range workloads {
		if w.name == e.workload {
			run = w.run
		}
	}
	if run == nil {
		return resultLine{}, fmt.Errorf("unknown workload %q", e.workload)
	}
	if e.trace {
		e.tr = &tracer{}
	}
	ys, err := startYardstick(e)
	if err != nil {
		return resultLine{}, err
	}
	e.ys = ys
	defer ys.stop()
	o, err := run(e)
	if err != nil {
		return resultLine{}, err
	}
	st := newStamp(e)
	st.Samples = o.samples
	fmt.Printf("workload %s seed %d seconds %g trace %v nproc %d GOMAXPROCS %d %s commit %s\n",
		st.Workload, st.Seed, st.Seconds, st.Trace, st.NProc, st.GOMAXPROCS, st.GoVersion, st.Commit)
	names := make([]string, 0, len(o.samples))
	for k := range o.samples {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("samples %s %d\n", k, o.samples[k])
	}
	for _, n := range o.notes {
		fmt.Println("note", n)
	}
	for _, f := range o.failures {
		fmt.Println("FAILED", f)
	}

	if o.attempted > 0 {
		o.e2e["ok_share"] = 1 - float64(o.failed)/float64(o.attempted)
	}
	defs, vals := endToEnd, o.e2e
	if e.trace {
		defs, vals = perLayer, o.layer
		if err := e.tr.write(fmt.Sprintf("%s/trace-%s.json", e.outDir, e.workload), st); err != nil {
			return resultLine{}, fmt.Errorf("write trace: %w", err)
		}
	}
	line := resultLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		fmt.Printf("metric %s %v %s\n", d.name, vals[d.name], d.unit)
		line.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	if !e.trace {
		// The wall-clock side of the same run, for the reader; a traced run
		// reports these as metrics.
		for _, d := range perLayer {
			if strings.HasPrefix(d.name, "host.") {
				fmt.Printf("wall %s %v %s\n", d.name, o.layer[d.name], d.unit)
			}
		}
	}
	return line, nil
}

// traceFlag accepts -trace 0|1 (the driver's spelling) as well as
// true/false; it is deliberately not a boolean flag, so the value may
// follow as its own argument.
type traceFlag bool

func (t *traceFlag) String() string { return fmt.Sprint(bool(*t)) }
func (t *traceFlag) Set(s string) error {
	switch s {
	case "1", "true":
		*t = true
	case "0", "false":
		*t = false
	default:
		return fmt.Errorf("want 0 or 1")
	}
	return nil
}

func main() {
	var trace traceFlag
	workload := flag.String("workload", "all", "workload name, or all to run each in a fresh process")
	seed := flag.Uint64("seed", 1, "input seed; 1 gives the sizes in README.md and is checked against golden/seed1.json")
	seconds := flag.Float64("seconds", 18, "length of the timed part of a run (BENCHMARK.json's run_seconds)")
	flag.Var(&trace, "trace", "0: end-to-end metrics from an untraced run; 1: spans, counters and per-layer metrics")
	repeat := flag.Int("repeat", 0, "run the whole set k times in fresh processes and print each metric's spread against its bound")
	yard := flag.Bool("yardstick", false, "run as the yardstick's process (the benchmark starts it itself)")
	updateGolden := flag.Bool("update-golden", false, "rewrite this workload's entry in benchmark/golden/seed1.json (seed 1 only)")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *yard {
		yardstickMain()
		return
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	// The benchmark's inputs and the repo's sources are found relative
	// to the repo root; refuse to run anywhere else.
	if _, err := os.Stat("go.mod"); err != nil {
		fatal(fmt.Errorf("run from the repo root (go run ./benchmark): %w", err))
	}

	if *repeat > 0 || *workload == "all" {
		if err := runSet(*repeat, *seed, *seconds, bool(trace)); err != nil {
			fatal(err)
		}
		return
	}

	e := &env{workload: *workload, seed: *seed, seconds: *seconds, trace: bool(trace),
		outDir: "benchmark/out", updateGolden: *updateGolden}
	line, err := runOne(e)
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !line.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
