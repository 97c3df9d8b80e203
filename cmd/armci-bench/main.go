// Command armci-bench is the offline driver for every experiment in the
// reproduction: the paper's figures and tables, the chaos profile, the
// scenario-composition DSL, and the verdict on the paper's claims.
//
// Usage:
//
//	armci-bench fig                  # Figs 3-9 + Eq 7/8 + ablations, paper scale
//	armci-bench fig 9 -quick -csv    # one figure, reduced process counts, CSV
//	armci-bench chaos [-seed 7]      # Fig 9 workload under scripted faults
//	armci-bench compose spec.json    # run a scenario-composition spec ("-" reads stdin)
//	armci-bench report               # the verdict: every claim at paper scale
//	armci-bench scf -quick           # Fig 11 (NWChem SCF proxy)
//	armci-bench tables               # Table II + partition factorizations
//	armci-bench torus -procs 2048    # topology explorer
//
// Every subcommand that simulates takes the same four flags, parsed in
// one place (edge): -parallel N (sweep workers) and -shards N (lane
// workers inside each simulation) pick the execution plan — output is
// byte-identical at any value of either — and -trace/-metrics capture a
// Perfetto-loadable timeline and the run's metrics as Prometheus text.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

var commands = map[string]func(args []string, stdout, stderr io.Writer) int{
	"fig":     cmdFig,
	"chaos":   cmdChaos,
	"compose": cmdCompose,
	"report":  cmdReport,
	"scf":     cmdSCF,
	"tables":  cmdTables,
	"torus":   cmdTorus,
}

// run is the whole program behind main: dispatch args[0] to its
// subcommand and return the process exit status (0 ok, 1 failed, 2 bad
// usage, 130 interrupted).
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		if cmd, ok := commands[args[0]]; ok {
			return cmd(args[1:], stdout, stderr)
		}
		fmt.Fprintf(stderr, "armci-bench: unknown subcommand %q\n", args[0])
	}
	fmt.Fprintln(stderr, "usage: armci-bench fig|chaos|compose|report|scf|tables|torus [args] [flags]")
	return 2
}

// newFlagSet returns a subcommand's flag set, reporting to stderr and
// leaving the exit to the caller.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("armci-bench "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parseArgs parses args against fs, accepting positional arguments
// before the flags as well as after them (`fig 9 -quick`), and returns
// the positionals. ok is false when the command line was bad (already
// reported by the flag package) or asked for -h.
func parseArgs(fs *flag.FlagSet, args []string) (pos []string, ok bool) {
	for len(args) > 0 && (args[0] == "-" || !strings.HasPrefix(args[0], "-")) {
		pos = append(pos, args[0])
		args = args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return nil, false
	}
	return append(pos, fs.Args()...), true
}

// edge is where armci-bench turns its command line into what a
// simulating subcommand runs with: the execution plan — one sweep.Engine
// built from -parallel and -shards — the SIGINT context, and the obs
// registry behind -trace/-metrics. It is resolved here once; nothing
// below it takes an execution setting.
type edge struct {
	fs     *flag.FlagSet
	stderr io.Writer

	parallel, shards       *int
	tracePath, metricsPath *string

	ctx  context.Context
	stop context.CancelFunc
	eng  *sweep.Engine
	reg  *obs.Registry
}

func newEdge(name string, stderr io.Writer) *edge {
	fs := newFlagSet(name, stderr)
	return &edge{
		fs: fs, stderr: stderr,
		parallel: fs.Int("parallel", runtime.GOMAXPROCS(0),
			"sweep worker count (1 = serial); output is byte-identical at any value"),
		shards: fs.Int("shards", 0,
			"lane workers inside each simulation (0 = one); output is byte-identical at any value"),
		tracePath:   fs.String("trace", "", "write Chrome trace_event JSON (Perfetto) to this file"),
		metricsPath: fs.String("metrics", "", "write the metrics (Prometheus text) to this file"),
	}
}

// start parses the command line (the subcommand has registered its own
// flags on e.fs by now), validates the execution plan, and builds the
// context, registry and engine. Callers return 2 when ok is false, and
// otherwise defer e.stop().
func (e *edge) start(args []string) (pos []string, ok bool) {
	pos, ok = parseArgs(e.fs, args)
	if !ok {
		return nil, false
	}
	if *e.shards < 0 || *e.parallel < 0 {
		fmt.Fprintf(e.stderr, "%s: -parallel and -shards must be non-negative (got %d, %d)\n",
			e.fs.Name(), *e.parallel, *e.shards)
		return nil, false
	}
	// Ctrl-C stops scheduling new sweep points; in-flight simulations
	// finish, partial grids are never rendered, and the process exits 130.
	e.ctx, e.stop = signal.NotifyContext(context.Background(), os.Interrupt)
	if *e.tracePath != "" || *e.metricsPath != "" {
		e.reg = obs.New()
	}
	e.eng = sweep.NewSharded(*e.parallel, *e.shards, e.reg)
	return pos, true
}

// interrupted reports (and says so on stderr) whether the run was cut
// short; whatever a cancelled sweep returned is partial and must be
// dropped. Callers return 130.
func (e *edge) interrupted() bool {
	if e.ctx.Err() == nil {
		return false
	}
	fmt.Fprintf(e.stderr, "%s: interrupted\n", e.fs.Name())
	return true
}

// render writes one grid as an aligned table or as CSV, blank-line
// terminated when sep is set (commands that may print several grids).
func render(w io.Writer, g *bench.Grid, csv, sep bool) {
	if !csv {
		g.Render(w)
		return
	}
	g.RenderCSV(w)
	if sep {
		fmt.Fprintln(w)
	}
}

// finish dumps the registry to the -trace/-metrics files and returns the
// subcommand's exit status.
func (e *edge) finish() int {
	dump := func(path string, write func(io.Writer) error) bool {
		if path == "" {
			return true
		}
		f, err := os.Create(path)
		if err == nil {
			err = write(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(e.stderr, "%s: %v\n", e.fs.Name(), err)
		}
		return err == nil
	}
	if e.reg != nil && !(dump(*e.tracePath, e.reg.WriteChromeTrace) && dump(*e.metricsPath, e.reg.WritePrometheus)) {
		return 1
	}
	return 0
}

// scale is the run set a -quick flag selects.
func scale(quick bool) bench.Scale {
	if quick {
		return bench.Quick
	}
	return bench.Paper
}

// cmdFig regenerates the communication figures (Figs 3-9), the Eq 7/8
// model validation and the ablations: bench.Figures, in that order.
func cmdFig(args []string, stdout, stderr io.Writer) int {
	e := newEdge("fig", stderr)
	csv := e.fs.Bool("csv", false, "emit CSV instead of text tables")
	quick := e.fs.Bool("quick", false, "reduced sizes/process counts")
	pos, ok := e.start(args)
	if !ok {
		return 2
	}
	defer e.stop()

	names := bench.Figures
	if len(pos) == 1 && pos[0] != "all" {
		names = []string{pos[0]}
	}
	if len(pos) > 1 || !slices.Contains(bench.Figures, names[0]) {
		fmt.Fprintf(stderr, "armci-bench fig: want one of %s or all, got %q\n", strings.Join(bench.Figures, ","), pos)
		return 2
	}
	runs := bench.NewRunSet(e.ctx, e.eng, scale(*quick))
	for _, name := range names {
		g := runs.Grid(name)
		if e.interrupted() {
			return 130
		}
		render(stdout, g, *csv, true)
	}
	return e.finish()
}

// cmdChaos runs the Fig 9 workload under the scripted fault plan
// (exercises retry/recovery).
func cmdChaos(args []string, stdout, stderr io.Writer) int {
	e := newEdge("chaos", stderr)
	csv := e.fs.Bool("csv", false, "emit CSV instead of a text table")
	quick := e.fs.Bool("quick", false, "reduced process counts")
	seed := e.fs.Uint64("seed", 42, "seed for the fault plan and jitter")
	if _, ok := e.start(args); !ok {
		return 2
	}
	defer e.stop()

	procs := []int{8, 16, 32}
	if *quick {
		procs = []int{8, 16}
	}
	g := bench.Chaos(e.ctx, e.eng, procs, 10, *seed)
	if e.interrupted() {
		return 130
	}
	render(stdout, g, *csv, true)
	return e.finish()
}

// cmdCompose parses a composition spec and renders the artifact. Both
// the bare spec and the POST /v1/compose request envelope
// ({"compose": <spec>, ...}) are accepted, so a server request body
// replays offline unchanged; the output is byte-identical to what a
// simd server caches for the same spec.
func cmdCompose(args []string, stdout, stderr io.Writer) int {
	e := newEdge("compose", stderr)
	csv := e.fs.Bool("csv", false, "emit CSV instead of text tables")
	pos, ok := e.start(args)
	if !ok {
		return 2
	}
	defer e.stop()
	if len(pos) != 1 {
		fmt.Fprintln(stderr, "armci-bench compose: want one spec file (- for stdin)")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "armci-bench compose: %v\n", err)
		return 1
	}

	var raw []byte
	var err error
	if pos[0] == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(pos[0])
	}
	if err != nil {
		return fail(err)
	}
	var env struct {
		Compose json.RawMessage `json:"compose"`
	}
	if json.Unmarshal(raw, &env) == nil && len(env.Compose) > 0 && string(env.Compose) != "null" {
		raw = env.Compose
	}
	sp, err := scenario.Parse(bytes.NewReader(raw))
	if err != nil {
		return fail(err)
	}
	res, err := scenario.Run(e.ctx, e.eng, sp)
	if e.interrupted() {
		return 130
	}
	if err != nil {
		return fail(err)
	}
	format := "text"
	if *csv {
		format = "csv"
	}
	if err := res.Render(stdout, format); err != nil {
		return fail(err)
	}
	return e.finish()
}
