package scenario

import (
	"context"
	"sort"

	"repro/internal/armci"
	"repro/internal/bench"
	"repro/internal/nwchem"
	"repro/internal/sweep"
)

// Axes declares which orthogonal spec axes a pattern consumes. Setting
// an axis the pattern does not consume is a validation error — a
// dropped axis would alias two different-looking specs onto one hash.
// A pattern that consumes none is a named scenario: its parameters are
// the whole experiment, which is what lets POST /v1/run address it by
// name alone.
type Axes struct {
	Sizes       bool `json:"sizes"`
	Procs       bool `json:"procs"`
	PerNode     bool `json:"per_node"`
	Mode        bool `json:"mode"`
	Consistency bool `json:"consistency"`
	Fault       bool `json:"fault"`
}

// pattern is one registered traffic pattern: its parameter schema, the
// axes it consumes with their defaults, an optional cross-field check,
// and the engine-explicit runner (called with a canonical phase).
type pattern struct {
	Name   string
	Doc    string
	Schema bench.Schema
	Axes   Axes

	DefaultSizes    *SizeDist
	DefaultTopology TopologySpec
	DefaultEngine   EngineSpec

	// Check validates cross-parameter constraints the schema cannot
	// express (e.g. tile must divide n). field is the phase's locator
	// prefix.
	Check func(ph *PhaseSpec, field string) error

	run func(ctx context.Context, eng *sweep.Engine, ph *PhaseSpec) *bench.Grid
}

// patterns is the registry — the one map from a name to a runner. Six
// entries are the named scenarios (no axes; sized for interactive
// latency, not paper scale — paper-scale sweeps stay the CLI drivers'
// job); five are the composable traffic patterns: the Fig 3 ping and
// Fig 9 fetch-and-add micro-kernels plus the three promoted examples
// (halo exchange, work-stealing, dgemm). Every runner is a pure function
// of its canonical phase — same phase, byte-identical grid — which is
// the property the serving layer's result cache banks on.
var patterns = map[string]*pattern{
	"micro": {
		Name: "micro",
		Doc:  "Fig 3 contiguous get/put latency between adjacent nodes (sizes, iters)",
		Schema: bench.Schema{
			bench.ListParam("sizes", "message-size sweep, bytes",
				[]int{16, 256, 4096, 65536}, bench.MinSize, bench.MaxSize, bench.MaxSizePoints),
			bench.IntParam("iters", "repetitions per size", 5, 1, bench.MaxIters),
		},
		run: func(ctx context.Context, eng *sweep.Engine, ph *PhaseSpec) *bench.Grid {
			return bench.Fig3(ctx, eng, ph.Params.Ints("sizes"), ph.Params.Int("iters"))
		},
	},
	"amo": {
		Name: "amo",
		Doc:  "SIV.B.3 ablation: software AMO vs hardware NIC fetch-and-add (procs, ops_each)",
		Schema: bench.Schema{
			bench.ListParam("procs", "process-count sweep",
				[]int{2, 8, 32}, bench.MinProcs, bench.MaxProcs, bench.MaxSweepPoints),
			bench.IntParam("ops_each", "fetch-and-add ops per worker rank", 8, 1, bench.MaxOpsEach),
		},
		run: func(ctx context.Context, eng *sweep.Engine, ph *PhaseSpec) *bench.Grid {
			return bench.AblationHardwareAMO(ctx, eng, ph.Params.Ints("procs"), ph.Params.Int("ops_each"))
		},
	},
	"fig9": {
		Name: "fig9",
		Doc:  "Fig 9 fetch-and-add latency, {default, async-thread} x {idle, computing} (procs, ops_each)",
		Schema: bench.Schema{
			bench.ListParam("procs", "process-count sweep",
				[]int{2, 16, 64}, bench.MinProcs, bench.MaxProcs, bench.MaxSweepPoints),
			bench.IntParam("ops_each", "fetch-and-add ops per worker rank", 8, 1, bench.MaxOpsEach),
		},
		run: func(ctx context.Context, eng *sweep.Engine, ph *PhaseSpec) *bench.Grid {
			return bench.Fig9(ctx, eng, ph.Params.Ints("procs"), ph.Params.Int("ops_each"))
		},
	},
	"chaos": {
		Name: "chaos",
		Doc:  "Fig 9 workload under the scripted fault plan, recovery counters included (procs, ops_each, seed)",
		Schema: bench.Schema{
			bench.ListParam("procs", "process-count sweep",
				[]int{8, 16}, bench.MinProcs, bench.MaxProcs, bench.MaxSweepPoints),
			bench.IntParam("ops_each", "fetch-and-add ops per worker rank", 10, 1, bench.MaxOpsEach),
			bench.UintParam("seed", "fault plan + jitter seed", 42),
		},
		run: func(ctx context.Context, eng *sweep.Engine, ph *PhaseSpec) *bench.Grid {
			return bench.Chaos(ctx, eng, ph.Params.Ints("procs"), ph.Params.Int("ops_each"), ph.Params.Uint("seed"))
		},
	},
	"scf": {
		Name: "scf",
		Doc:  "Fig 11 NWChem SCF proxy at reduced scale, Default vs Async Thread (procs, per_node, iters)",
		Schema: bench.Schema{
			bench.ListParam("procs", "process-count sweep",
				[]int{16, 32}, bench.MinProcs, bench.MaxProcs, bench.MaxSweepPoints),
			bench.IntParam("per_node", "ranks per node", 16, 1, bench.MaxPerNode),
			bench.IntParam("iters", "SCF cycles", 1, 1, bench.MaxIters),
		},
		run: func(ctx context.Context, eng *sweep.Engine, ph *PhaseSpec) *bench.Grid {
			scfg := nwchem.Config{Mol: nwchem.NewMolecule([]int{8, 6, 6, 8, 6, 6}),
				Iterations: ph.Params.Int("iters"), FlopRate: 2e7}
			return bench.Fig11(ctx, eng, ph.Params.Ints("procs"), ph.Params.Int("per_node"), scfg)
		},
	},
	"tableii": {
		Name:   "tableii",
		Doc:    "Table II empirical PAMI time/space attribute values (no parameters)",
		Schema: bench.Schema{},
		run: func(ctx context.Context, eng *sweep.Engine, ph *PhaseSpec) *bench.Grid {
			return bench.TableII()
		},
	},
	"ping": {
		Name: "ping",
		Doc:  "Fig 3-style contiguous get/put latency between two adjacent nodes",
		Schema: bench.Schema{
			bench.IntParam("iters", "repetitions per size point", 5, 1, bench.MaxIters),
		},
		Axes:         Axes{Sizes: true, Mode: true, Fault: true},
		DefaultSizes: &SizeDist{Kind: "sweep", MinBytes: 16, MaxBytes: 65536},
		DefaultEngine: EngineSpec{
			Mode: "async",
		},
		run: func(ctx context.Context, eng *sweep.Engine, ph *PhaseSpec) *bench.Grid {
			sizes, weights := ph.Sizes.resolve()
			return bench.PingGrid(ctx, eng, bench.PingSpec{
				Sizes:   sizes,
				Weights: weights,
				Iters:   ph.Params.Int("iters"),
				Modes:   ph.Engine.modes(),
				Fault:   ph.Fault.factory(),
				Seed:    ph.Fault.seed(),
			})
		},
	},
	"fetchadd": {
		Name: "fetchadd",
		Doc:  "Fig 9-style fetch-and-add on a rank-0 counter hammered by all other ranks",
		Schema: bench.Schema{
			bench.IntParam("ops_each", "fetch-and-add ops per worker rank", 8, 1, bench.MaxOpsEach),
			bench.BoolParam("compute", "rank 0 computes in 300 us chunks between progress calls", false),
		},
		Axes:            Axes{Procs: true, PerNode: true, Mode: true, Fault: true},
		DefaultTopology: TopologySpec{Procs: []int{2, 16, 64}, PerNode: 16},
		DefaultEngine:   EngineSpec{Mode: "both"},
		run: func(ctx context.Context, eng *sweep.Engine, ph *PhaseSpec) *bench.Grid {
			return bench.FetchAddGrid(ctx, eng, bench.FetchAddSpec{
				Procs:   ph.Topology.Procs,
				PerNode: ph.Topology.PerNode,
				OpsEach: ph.Params.Int("ops_each"),
				Compute: ph.Params.Bool("compute"),
				Modes:   ph.Engine.modes(),
				Fault:   ph.Fault.factory(),
				Seed:    ph.Fault.seed(),
			})
		},
	},
	"halo": {
		Name: "halo",
		Doc:  "2-D Jacobi halo exchange: contiguous row halos (RDMA) + strided column halos (typed)",
		Schema: bench.Schema{
			bench.IntParam("tiles_x", "process grid width", 4, 1, 8),
			bench.IntParam("tiles_y", "process grid height", 2, 1, 8),
			bench.IntParam("tile_n", "interior cells per tile side", 32, 4, 128),
			bench.IntParam("iters", "Jacobi iterations", 20, 1, bench.MaxIters),
		},
		Axes:            Axes{PerNode: true, Mode: true},
		DefaultTopology: TopologySpec{PerNode: 16},
		DefaultEngine:   EngineSpec{Mode: "async"},
		Check: func(ph *PhaseSpec, field string) error {
			procs := ph.Params.Int("tiles_x") * ph.Params.Int("tiles_y")
			if procs < bench.MinProcs {
				return errf(field+".params.tiles_y",
					"tiles_x*tiles_y must be at least %d ranks (got %d)", bench.MinProcs, procs)
			}
			return nil
		},
		run: func(ctx context.Context, eng *sweep.Engine, ph *PhaseSpec) *bench.Grid {
			return bench.HaloGrid(ctx, eng, bench.HaloSpec{
				TilesX:  ph.Params.Int("tiles_x"),
				TilesY:  ph.Params.Int("tiles_y"),
				TileN:   ph.Params.Int("tile_n"),
				Iters:   ph.Params.Int("iters"),
				PerNode: ph.Topology.PerNode,
				Modes:   ph.Engine.modes(),
			})
		},
	},
	"worksteal": {
		Name: "worksteal",
		Doc:  "dynamic load balancing: skewed task pool handed out by rank-0 fetch-and-add",
		Schema: bench.Schema{
			bench.IntParam("tasks", "tasks in the pool", 256, 1, 4096),
		},
		Axes:            Axes{Procs: true, PerNode: true, Mode: true},
		DefaultTopology: TopologySpec{Procs: []int{16}, PerNode: 16},
		DefaultEngine:   EngineSpec{Mode: "both"},
		run: func(ctx context.Context, eng *sweep.Engine, ph *PhaseSpec) *bench.Grid {
			return bench.WorkStealGrid(ctx, eng, bench.WorkStealSpec{
				Procs:   ph.Topology.Procs,
				PerNode: ph.Topology.PerNode,
				Tasks:   ph.Params.Int("tasks"),
				Modes:   ph.Engine.modes(),
			})
		},
	},
	"dgemm": {
		Name: "dgemm",
		Doc:  "distributed C = A x B over Global Arrays, exact-verified, consistency-mode ablation",
		Schema: bench.Schema{
			bench.IntParam("n", "matrix dimension", 48, 8, 192),
			bench.IntParam("tile", "tile dimension (must divide n)", 12, 4, 64),
		},
		Axes:            Axes{Procs: true, PerNode: true, Consistency: true},
		DefaultTopology: TopologySpec{Procs: []int{4}, PerNode: 4},
		DefaultEngine:   EngineSpec{Consistency: "both"},
		Check: func(ph *PhaseSpec, field string) error {
			n, tile := ph.Params.Int("n"), ph.Params.Int("tile")
			if n%tile != 0 {
				return errf(field+".params.tile", "must divide n (%d %% %d != 0)", n, tile)
			}
			return nil
		},
		run: func(ctx context.Context, eng *sweep.Engine, ph *PhaseSpec) *bench.Grid {
			return bench.DgemmGrid(ctx, eng, bench.DgemmSpec{
				N:           ph.Params.Int("n"),
				Tile:        ph.Params.Int("tile"),
				Procs:       ph.Topology.Procs,
				PerNode:     ph.Topology.PerNode,
				Consistency: ph.Engine.consistencyModes(),
			})
		},
	},
}

func lookupPattern(name string) (*pattern, bool) {
	p, ok := patterns[name]
	return p, ok
}

// consistencyModes expands the canonical consistency string into
// armci modes in column order.
func (e *EngineSpec) consistencyModes() []armci.ConsistencyMode {
	switch e.Consistency {
	case "naive":
		return []armci.ConsistencyMode{armci.ConsistencyNaive}
	case "region":
		return []armci.ConsistencyMode{armci.ConsistencyPerRegion}
	case "both":
		return []armci.ConsistencyMode{armci.ConsistencyNaive, armci.ConsistencyPerRegion}
	}
	panic("scenario: unresolved consistency " + e.Consistency)
}

// Info is one pattern's self-description, served by GET /v1/scenarios
// so clients compose specs by introspection instead of hard-coding.
type Info struct {
	Name   string       `json:"name"`
	Doc    string       `json:"doc"`
	Params bench.Schema `json:"params"`
	Axes   Axes         `json:"axes"`
}

// Named reports whether the pattern is a named scenario: it consumes no
// axes, so its name and parameters are the whole experiment.
func (i Info) Named() bool { return i.Axes == Axes{} }

func (p *pattern) info() Info {
	return Info{Name: p.Name, Doc: p.Doc, Params: p.Schema, Axes: p.Axes}
}

// Lookup describes one registered pattern by name.
func Lookup(name string) (Info, bool) {
	p, ok := patterns[name]
	if !ok {
		return Info{}, false
	}
	return p.info(), true
}

// Patterns lists every registered pattern, sorted by name.
func Patterns() []Info {
	out := make([]Info, 0, len(patterns))
	for _, p := range patterns {
		out = append(out, p.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
