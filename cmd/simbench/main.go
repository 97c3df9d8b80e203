// Command simbench measures the wall-clock cost of *simulating* — the
// engine's hot paths, not the simulated machine's performance — and
// writes the results to BENCH_sim.json at the repo root. It is the
// committed baseline every performance PR is compared against.
//
// Two tiers:
//
//   - micro benches (kernel event throughput, coroutine switch, network
//     send, ARMCI blocking get) run under testing.Benchmark and report
//     ns/op + allocs/op;
//   - scenario benches (the Fig 9 p=4096 load-balance-counter
//     micro-kernel and a reduced-scale SCF iteration) time one full
//     simulation per op, best-of-N wall clock. The sweep_* scenarios
//     time a whole figure sweep at GOMAXPROCS workers against its own
//     serial run (speedup_vs_baseline = measured parallel-sweep speedup
//     on this machine), verifying CSV byte-identity along the way. The
//     fig9_p16384_* rows time one large simulation on the serial lane
//     engine versus 2/4 intra-run lane workers (-shards), verifying the
//     simulated latency is bit-identical at every shard count.
//
// The serving layer's answer tiers (hot LRU, disk, peer fill, proxy hop)
// are the repo benchmark's serve_read_mix / serve_write_mix workloads,
// not rows here.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"regexp"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/armci"
	"repro/internal/bench"
	"repro/internal/network"
	"repro/internal/nwchem"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// baselineNs is the pre-optimization wall clock recorded at the commit
// named by baselineCommit, on the reference machine that produced the
// committed BENCH_sim.json. Speedup factors in the JSON are measured
// against these numbers; they are only meaningful on comparable hardware
// (compare allocs/op, which is machine-independent, everywhere else).
var baselineNs = map[string]float64{
	"kernel_events":            53,
	"kernel_events_zero_delay": 60,
	"thread_switch":            624,
	"network_send":             1181,
	"armci_get":                3903,
	"fig9_p4096":               5_433_301_440,
	"scf_reduced":              160_741_867,
}

// baselineAllocs is the matching allocs/op at the baseline commit.
var baselineAllocs = map[string]float64{
	"kernel_events":            1,
	"kernel_events_zero_delay": 1,
	"thread_switch":            2,
	"network_send":             2,
	"armci_get":                22,
	"fig9_p4096":               34_583_969,
	"scf_reduced":              675_600,
}

const baselineCommit = "pre-PR2 seed (a31ba16)"

type result struct {
	NsPerOp          float64 `json:"ns_per_op"`
	AllocsPerOp      float64 `json:"allocs_per_op"`
	BytesPerOp       float64 `json:"bytes_per_op,omitempty"` // scenario rows: heap bytes allocated
	BaselineNsPerOp  float64 `json:"baseline_ns_per_op,omitempty"`
	BaselineAllocsOp float64 `json:"baseline_allocs_per_op,omitempty"`
	Speedup          float64 `json:"speedup_vs_baseline,omitempty"`
	Kind             string  `json:"kind"` // "micro" (one op) or "scenario" (one full simulation)
	Note             string  `json:"note,omitempty"`
}

type report struct {
	Schema         int               `json:"schema"`
	BaselineCommit string            `json:"baseline_commit"`
	Note           string            `json:"note"`
	Benches        map[string]result `json:"benches"`
}

func skip(name string) bool { return only != nil && !only.MatchString(name) }

// micro runs fn under testing.Benchmark and records ns/op + allocs/op.
func micro(name string, reps map[string]result, fn func(b *testing.B)) {
	if skip(name) {
		return
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	reps[name] = finish(name, "micro", float64(r.NsPerOp()), float64(r.AllocsPerOp()))
}

// cost is what one timed run spent: wall clock, heap allocations and the
// bytes they took (runtime.MemStats Mallocs and TotalAlloc deltas).
type cost struct {
	d             time.Duration
	allocs, bytes float64
}

// timed runs fn once, after a collection, and reports its cost.
func timed(fn func()) cost {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	return cost{d, float64(ms1.Mallocs - ms0.Mallocs), float64(ms1.TotalAlloc - ms0.TotalAlloc)}
}

// scenario times one full simulation per op: one warm-up run, then
// best-of-reps wall clock, with that run's allocation count and bytes.
func scenario(name string, reps map[string]result, runs int, fn func()) {
	if skip(name) {
		return
	}
	fn() // warm-up: route caches, goroutine pool, page faults
	best := cost{d: 1<<63 - 1}
	for i := 0; i < runs; i++ {
		if c := timed(fn); c.d < best.d {
			best = c
		}
	}
	r := finish(name, "scenario", float64(best.d.Nanoseconds()), best.allocs)
	r.BytesPerOp = best.bytes
	reps[name] = r
}

// sweepScenario times a whole benchmark sweep twice — on one sweep
// worker and on as many as GOMAXPROCS allows — and records the parallel
// wall clock with the serial one as its baseline, so
// speedup_vs_baseline is the measured parallel-sweep speedup on this
// machine. Every rendering must produce identical CSV bytes; any
// divergence is a determinism violation and exits 1.
func sweepScenario(name string, reps map[string]result, runs, shards int, render func(eng *sweep.Engine) *bench.Grid) {
	if skip(name) {
		return
	}
	measure := func(workers int) (cost, []byte) {
		eng := sweep.NewSharded(workers, shards, nil)
		var buf bytes.Buffer
		render(eng).RenderCSV(&buf) // warm-up + reference bytes
		ref := append([]byte(nil), buf.Bytes()...)
		best := cost{d: 1<<63 - 1}
		for i := 0; i < runs; i++ {
			var g *bench.Grid
			c := timed(func() { g = render(eng) })
			buf.Reset()
			g.RenderCSV(&buf)
			if !bytes.Equal(buf.Bytes(), ref) {
				fmt.Fprintf(os.Stderr,
					"DETERMINISM VIOLATION: %s output changed between runs at %d workers\n",
					name, workers)
				os.Exit(1)
			}
			if c.d < best.d {
				best = c
			}
		}
		return best, ref
	}
	ser, serCSV := measure(1)
	par, parCSV := measure(0)
	if !bytes.Equal(serCSV, parCSV) {
		fmt.Fprintf(os.Stderr,
			"DETERMINISM VIOLATION: %s CSV differs between -parallel 1 and -parallel GOMAXPROCS\n",
			name)
		os.Exit(1)
	}
	serNs, parNs := float64(ser.d.Nanoseconds()), float64(par.d.Nanoseconds())
	reps[name] = result{NsPerOp: parNs, AllocsPerOp: par.allocs, BytesPerOp: par.bytes,
		BaselineNsPerOp: serNs, Speedup: serNs / parNs, Kind: "scenario"}
}

// shardScaling times one full simulation per op at several lane worker
// counts — shards 0 (the serial lane engine) as the baseline, then each
// requested sharded run — and records one row per count, with the serial
// wall clock as the sharded rows' baseline so speedup_vs_baseline is the
// measured intra-run scaling on this machine. The simulated latency must
// be bit-identical at every shard count (shard count is an execution
// knob, never a result knob); any divergence is a determinism violation
// and exits 1. Every config runs on its own sweep.NewSharded(1, N)
// engine, the plan any other driver would build, so on a host with fewer
// than N cores the row measures what CoreBudget resolved N to — recorded
// in the row's note.
// At this scale one run's heap is tens of GB, and allocator/page warmth
// and GC pacing drift across successive runs would dwarf the effect
// being measured if each config were timed in its own block — so after
// a warm-up round over every config, the timed rounds interleave
// (round-robin over configs), giving serial and sharded runs the same
// heap history.
func shardScaling(ctx context.Context, name string, reps map[string]result, runs, procs, opsEach int, shardCounts []int) {
	if skip(name) {
		return
	}
	configs := append([]int{0}, shardCounts...)
	engines := make([]*sweep.Engine, len(configs))
	for i, s := range configs {
		engines[i] = sweep.NewSharded(1, s, nil)
	}
	run := func(i int) float64 {
		return bench.Fig9Point(ctx, engines[i], procs, 16, true, false, opsEach)
	}
	ref := run(0) // warm-up round + reference value
	for i, s := range configs[1:] {
		if v := run(i + 1); v != ref {
			fmt.Fprintf(os.Stderr,
				"DETERMINISM VIOLATION: %s simulated latency differs between the serial engine and %d shards\n",
				name, s)
			os.Exit(1)
		}
	}
	best := make([]cost, len(configs))
	for round := 0; round < runs; round++ {
		for i, s := range configs {
			var v float64
			c := timed(func() { v = run(i) })
			if v != ref {
				fmt.Fprintf(os.Stderr,
					"DETERMINISM VIOLATION: %s latency changed between runs at %d shards\n",
					name, s)
				os.Exit(1)
			}
			if round == 0 || c.d < best[i].d {
				best[i] = c
			}
		}
	}
	serNs := float64(best[0].d.Nanoseconds())
	reps[name+"_serial"] = result{NsPerOp: serNs, AllocsPerOp: best[0].allocs, BytesPerOp: best[0].bytes, Kind: "scenario"}
	for i, s := range shardCounts {
		c := best[i+1]
		ns := float64(c.d.Nanoseconds())
		reps[fmt.Sprintf("%s_shards%d", name, s)] = result{NsPerOp: ns, AllocsPerOp: c.allocs, BytesPerOp: c.bytes,
			BaselineNsPerOp: serNs, Speedup: serNs / ns, Kind: "scenario",
			Note: fmt.Sprintf("ran on %d lane workers (GOMAXPROCS=%d)", engines[i+1].Shards(), runtime.GOMAXPROCS(0))}
	}
}

func finish(name, kind string, ns, allocs float64) result {
	r := result{NsPerOp: ns, AllocsPerOp: allocs, Kind: kind}
	if base, ok := baselineNs[name]; ok && base > 0 {
		r.BaselineNsPerOp = base
		r.Speedup = base / ns
	}
	if base, ok := baselineAllocs[name]; ok {
		r.BaselineAllocsOp = base
	}
	return r
}

var only *regexp.Regexp

func main() {
	out := flag.String("out", "BENCH_sim.json", "output JSON path (empty: stdout only)")
	merge := flag.Bool("merge", false, "merge this run's rows into an existing -out file instead of replacing it (rows not re-run keep their old values); lets -only refresh a subset of BENCH_sim.json")
	onlyPat := flag.String("only", "", "run only benches matching this regexp")
	shards := flag.Int("shards", 0, "lane workers inside each harness simulation (0 = one); output is byte-identical at any value")
	big := flag.Bool("big", false, "also run the p=65536 shard-scaling scenario (slow)")
	gateShards := flag.Bool("gate-shards", false,
		"exit 1 if any fig9 shardsN row is >10% slower than its serial baseline while GOMAXPROCS >= N (the bench-shards CI gate)")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile of the selected benches")
	memProf := flag.String("memprofile", "", "write an allocation profile of the selected benches")
	flag.Parse()
	if *shards < 0 {
		fmt.Fprintf(os.Stderr, "simbench: -shards must be non-negative, got %d\n", *shards)
		os.Exit(2)
	}
	if *onlyPat != "" {
		only = regexp.MustCompile(*onlyPat)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fatal(err)
			}
		}()
	}

	// Ctrl-C stops scheduling new sweep points; a partial report is never
	// written.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// The engine the single-simulation rows run on (building it also sets
	// the GC posture the full-scale drivers measure under).
	eng := sweep.NewSharded(0, *shards, nil)
	interrupted := func() {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "simbench: interrupted")
			os.Exit(130)
		}
	}

	reps := make(map[string]result)

	// Raw event throughput of the DES kernel: one event schedules the next.
	micro("kernel_events", reps, func(b *testing.B) {
		k := sim.NewKernel()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < b.N {
				k.At(1, tick)
			}
		}
		k.At(1, tick)
		b.ResetTimer()
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	})

	// Zero-delay scheduling: the Spawn/Wake/Yield fast path.
	micro("kernel_events_zero_delay", reps, func(b *testing.B) {
		k := sim.NewKernel()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < b.N {
				k.At(0, tick)
			}
		}
		k.At(0, tick)
		b.ResetTimer()
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	})

	// Coroutine handoff: lane -> thread -> lane per op. Two threads sleep
	// against each other, so every wake-up finds the other's due first and
	// has to switch; a lone sleeper no longer leaves its thread at all (the
	// next row).
	micro("thread_switch", reps, func(b *testing.B) {
		k := sim.NewKernel()
		for i := 0; i < 2; i++ {
			k.Spawn("switcher", func(th *sim.Thread) {
				for n := i; n < b.N; n += 2 {
					th.Sleep(1)
				}
			})
		}
		b.ResetTimer()
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		if b.N > 2 && k.Switches() < uint64(b.N) {
			b.Fatalf("%d sleeps made only %d switches: this row no longer times one", b.N, k.Switches())
		}
	})

	// A sleep nothing interrupts: the lane's next event is the sleeper's own
	// wake-up, which Sleep fires where it stands — no switch.
	micro("sleep_uncontended", reps, func(b *testing.B) {
		k := sim.NewKernel()
		k.Spawn("sleeper", func(th *sim.Thread) {
			for i := 0; i < b.N; i++ {
				th.Sleep(1)
			}
		})
		b.ResetTimer()
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	})

	// Network message rate across a 128-node torus, observability off.
	micro("network_send", reps, func(b *testing.B) {
		k := sim.NewKernel()
		tor := topology.New([topology.NumDims]int{2, 2, 4, 4, 2}, 1)
		nw := network.New(k, tor, network.DefaultParams())
		k.Spawn("src", func(th *sim.Thread) {
			wg := sim.NewWaitGroup(k)
			wg.Add(b.N)
			done := wg.Done
			for i := 0; i < b.N; i++ {
				nw.Send(i%128, (i*7)%128, 512, network.Data, done)
				if i%64 == 0 {
					th.Sleep(1)
				}
			}
			wg.Wait(th)
		})
		b.ResetTimer()
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	})

	// Full-stack ARMCI blocking get (2 ranks, async thread).
	micro("armci_get", reps, func(b *testing.B) {
		armci.MustRun(armci.Config{Procs: 2, ProcsPerNode: 1, AsyncThread: true},
			func(th *sim.Thread, rt *armci.Runtime) {
				a := rt.Malloc(th, 4096)
				if rt.Rank != 0 {
					return
				}
				local := rt.LocalAlloc(th, 4096)
				rt.Get(th, a.At(1), local, 64)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rt.Get(th, a.At(1), local, 64)
				}
			})
	})

	// Fig 9 at paper scale: 4096 ranks hammering a rank-0 counter
	// through the async progress thread (the wall-clock-bound case
	// the paper's Fig 9 sweep regenerates).
	scenario("fig9_p4096", reps, 3, func() {
		bench.Fig9Point(ctx, eng, 4096, 16, true, false, 2)
	})

	// Reduced SCF: the Fig 11 proxy at 256 ranks, one iteration.
	scfg := nwchem.Config{Mol: nwchem.NewMolecule([]int{8, 6, 6, 8, 6, 6}),
		Iterations: 1, FlopRate: 2e7}
	scenario("scf_reduced", reps, 3, func() {
		nwchem.Experiment(armci.Config{Procs: 256, ProcsPerNode: 16, AsyncThread: true}, scfg)
	})

	// Parallel sweep engine: whole-table wall clock at GOMAXPROCS
	// workers against the serial baseline, with CSV byte-identity
	// enforced at both worker counts.
	sweepScenario("sweep_fig9", reps, 2, *shards, func(eng *sweep.Engine) *bench.Grid {
		return bench.Fig9(ctx, eng, []int{2, 16, 64, 256}, 8)
	})
	sweepScenario("sweep_chaos", reps, 2, *shards, func(eng *sweep.Engine) *bench.Grid {
		return bench.Chaos(ctx, eng, []int{8, 16, 32}, 10, 42)
	})

	interrupted()

	// Intra-run lane scaling at the ROADMAP's target scale: the same
	// fig9 simulation timed on the serial lane engine and on 2/4 lane
	// workers, with bit-identical simulated latency enforced across all
	// of them.
	shardScaling(ctx, "fig9_p16384", reps, 2, 16384, 2, []int{2, 4})
	if *big {
		shardScaling(ctx, "fig9_p65536", reps, 1, 65536, 2, []int{2, 4})
	}

	interrupted()

	rep := report{
		Schema:         1,
		BaselineCommit: baselineCommit,
		Note: fmt.Sprintf("wall-clock cost of simulating (engine hot paths), written by `make bench` "+
			"with GOMAXPROCS=%d; ns figures are machine-dependent, allocs/op and bytes/op (scenario rows) are not; sweep_* "+
			"benches measure the parallel sweep engine against its own serial run on this "+
			"machine; fig9_p16384_shards* rows measure intra-run lane workers against the "+
			"serial lane engine on this machine — shardsN speedups are only meaningful when "+
			"GOMAXPROCS >= N (on fewer cores lane workers just multiplex and can only add "+
			"overhead; `make bench-shards` gates the multi-core case)", runtime.GOMAXPROCS(0)),
		Benches: reps,
	}

	names := make([]string, 0, len(reps))
	for n := range reps {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-28s %14s %12s %10s %10s\n", "bench", "ns/op", "allocs/op", "MB/op", "speedup")
	for _, n := range names {
		r := reps[n]
		sp := "-"
		if r.Speedup > 0 {
			sp = fmt.Sprintf("%.2fx", r.Speedup)
		}
		mb := "-"
		if r.BytesPerOp > 0 {
			mb = fmt.Sprintf("%.1f", r.BytesPerOp/(1<<20))
		}
		fmt.Printf("%-28s %14.1f %12.1f %10s %10s\n", n, r.NsPerOp, r.AllocsPerOp, mb, sp)
	}

	if *gateShards {
		// The bench-shards CI gate: a shardsN row that is >10% slower than
		// its serial baseline is a scaling regression — but only on a host
		// with at least N cores, where the workers can actually run in
		// parallel. On smaller hosts the rows are recorded but not gated.
		p := runtime.GOMAXPROCS(0)
		bad := false
		for name, r := range reps {
			i := strings.LastIndex(name, "_shards")
			if i < 0 || r.BaselineNsPerOp == 0 {
				continue
			}
			n, err := strconv.Atoi(name[i+len("_shards"):])
			if err != nil {
				continue
			}
			if p < n {
				fmt.Printf("gate-shards: %s not gated (GOMAXPROCS=%d < %d shards)\n", name, p, n)
				continue
			}
			if r.NsPerOp > 1.1*r.BaselineNsPerOp {
				fmt.Fprintf(os.Stderr, "SHARD SCALING REGRESSION: %s is %.2fx the serial wall clock on %d cores (limit 1.10x)\n",
					name, r.NsPerOp/r.BaselineNsPerOp, p)
				bad = true
			} else {
				fmt.Printf("gate-shards: %s ok (%.2fx serial, GOMAXPROCS=%d)\n",
					name, r.NsPerOp/r.BaselineNsPerOp, p)
			}
		}
		if bad {
			os.Exit(1)
		}
	}

	if *out != "" {
		if *merge {
			// Keep every row the selected benches did not re-measure, so a
			// partial run (-only) refreshes its subset without discarding
			// the rest of the committed baseline.
			if old, err := os.ReadFile(*out); err == nil {
				var prev report
				if err := json.Unmarshal(old, &prev); err == nil {
					for n, r := range prev.Benches {
						if _, ok := reps[n]; !ok {
							reps[n] = r
						}
					}
				}
			}
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simbench:", err)
	os.Exit(1)
}
