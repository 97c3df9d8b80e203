package bench

import (
	"context"
	"sort"

	"repro/internal/nwchem"
	"repro/internal/sweep"
)

// Params is the wire-level parameterization of a named legacy scenario —
// the JSON a serving-layer job submits. Every field is optional: zero
// values are filled from the scenario's schema defaults by Normalize,
// which is what makes configurations content-addressable (two spellings
// of the same experiment normalize to the same Params and therefore the
// same hash). Which fields a scenario consults is declared in its
// Schema; the rest are ignored but still part of the identity.
//
// Composition patterns (internal/scenario) use the map-shaped Values
// instead, so each pattern can declare its own parameter set; this flat
// struct survives for the six legacy scenarios whose canonical hashes
// are pinned.
type Params struct {
	// Procs is the process-count sweep (one independent simulation, or
	// pair, per entry).
	Procs []int `json:"procs,omitempty"`
	// PerNode is the ranks-per-node placement where configurable.
	PerNode int `json:"per_node,omitempty"`
	// OpsEach is the per-worker operation count of the AMO workloads.
	OpsEach int `json:"ops_each,omitempty"`
	// Iters is the repetition count (micro) or SCF cycle count (scf).
	Iters int `json:"iters,omitempty"`
	// Sizes is the message-size sweep of the micro scenario, bytes.
	Sizes []int `json:"sizes,omitempty"`
	// Seed drives the chaos scenario's fault plan and jitter streams
	// (0 normalizes to the default seed).
	Seed uint64 `json:"seed,omitempty"`
}

// Scenario is one named, remotely addressable experiment: a one-line
// doc, a typed parameter schema, and an engine-explicit runner.
// Normalize and Validate are generated from the schema rather than
// hand-maintained per field. Scenarios are pure functions of their
// normalized Params — same params, byte-identical grid — which is the
// property the serving layer's result cache banks on.
type Scenario struct {
	Name string
	Doc  string
	// Schema declares the parameters this scenario consults: name,
	// type, default, bounds, doc. Served verbatim by GET /v1/scenarios.
	Schema Schema
	run    func(ctx context.Context, eng *sweep.Engine, p Params) *Grid
}

// wireBounds are the universal ceilings applied to every flat-Params
// field whether or not the scenario's schema declares it — unused fields
// are ignored by the runner but remain part of the job identity, so they
// are bounded too (exactly the pre-schema behavior; the legacy hash pins
// depend on the accept/reject set not moving).
var wireBounds = Schema{
	ListParam("procs", "process-count sweep", nil, MinProcs, MaxProcs, MaxSweepPoints),
	IntParam("per_node", "ranks per node", 0, 1, MaxPerNode),
	IntParam("ops_each", "per-worker AMO ops", 0, 1, MaxOpsEach),
	IntParam("iters", "repetitions", 0, 1, MaxIters),
	ListParam("sizes", "message-size sweep, bytes", nil, MinSize, MaxSize, MaxSizePoints),
	UintParam("seed", "fault/jitter seed", 0),
}

// field maps a wire name onto the corresponding Params field.
func (p *Params) field(name string) any {
	switch name {
	case "procs":
		return &p.Procs
	case "per_node":
		return &p.PerNode
	case "ops_each":
		return &p.OpsEach
	case "iters":
		return &p.Iters
	case "sizes":
		return &p.Sizes
	case "seed":
		return &p.Seed
	}
	panic("bench: schema names unknown wire field " + name)
}

// Normalize returns p with every zero field replaced by its schema
// default. Submitting {} and submitting the defaults spelled out produce
// the same normalized value.
func (s *Scenario) Normalize(p Params) Params {
	for _, ps := range s.Schema {
		switch f := p.field(ps.Name).(type) {
		case *[]int:
			if len(*f) == 0 {
				*f = append([]int(nil), ps.Default.([]int)...)
			}
		case *int:
			if *f == 0 {
				*f = ps.Default.(int)
			}
		case *uint64:
			if *f == 0 {
				*f = ps.Default.(uint64)
			}
		}
	}
	return p
}

// Validate bounds a normalized Params so one job cannot sink the
// service. Every wire field is checked against the universal bounds
// (zero/empty means "unset" and passes); declared parameters inherit the
// same ceilings, so the accept/reject set is identical to the
// pre-schema registry.
func (s *Scenario) Validate(p Params) error {
	for _, ps := range wireBounds {
		switch f := p.field(ps.Name).(type) {
		case *[]int:
			if len(*f) == 0 {
				continue
			}
			if err := ps.check(*f); err != nil {
				return err
			}
		case *int:
			if *f == 0 {
				continue
			}
			if err := ps.check(*f); err != nil {
				return err
			}
		}
	}
	return nil
}

// Run normalizes and validates p, then executes the scenario on the
// given engine under ctx. The returned grid is complete only if ctx was
// never cancelled; callers must check ctx.Err() before rendering or
// caching it.
func (s *Scenario) Run(ctx context.Context, eng *sweep.Engine, p Params) (*Grid, error) {
	p = s.Normalize(p)
	if err := s.Validate(p); err != nil {
		return nil, err
	}
	return s.run(ctx, eng, p), nil
}

// scenarios is the registry: every flat-Params experiment the serving
// layer can execute by name. Defaults are sized for interactive latency
// (tens of milliseconds to a few seconds per job), not paper scale —
// paper-scale sweeps stay the CLI drivers' job. Composed multi-phase
// specs live in internal/scenario and reach the wire via /v1/compose.
var scenarios = map[string]*Scenario{
	"micro": {
		Name: "micro",
		Doc:  "Fig 3 contiguous get/put latency between adjacent nodes (sizes, iters)",
		Schema: Schema{
			ListParam("sizes", "message-size sweep, bytes",
				[]int{16, 256, 4096, 65536}, MinSize, MaxSize, MaxSizePoints),
			IntParam("iters", "repetitions per size", 5, 1, MaxIters),
		},
		run: func(ctx context.Context, eng *sweep.Engine, p Params) *Grid {
			return Fig3(ctx, eng, p.Sizes, p.Iters)
		},
	},
	"amo": {
		Name: "amo",
		Doc:  "SIV.B.3 ablation: software AMO vs hardware NIC fetch-and-add (procs, ops_each)",
		Schema: Schema{
			ListParam("procs", "process-count sweep",
				[]int{2, 8, 32}, MinProcs, MaxProcs, MaxSweepPoints),
			IntParam("ops_each", "fetch-and-add ops per worker rank", 8, 1, MaxOpsEach),
		},
		run: func(ctx context.Context, eng *sweep.Engine, p Params) *Grid {
			return AblationHardwareAMO(ctx, eng, p.Procs, p.OpsEach)
		},
	},
	"fig9": {
		Name: "fig9",
		Doc:  "Fig 9 fetch-and-add latency, {default, async-thread} x {idle, computing} (procs, ops_each)",
		Schema: Schema{
			ListParam("procs", "process-count sweep",
				[]int{2, 16, 64}, MinProcs, MaxProcs, MaxSweepPoints),
			IntParam("ops_each", "fetch-and-add ops per worker rank", 8, 1, MaxOpsEach),
		},
		run: func(ctx context.Context, eng *sweep.Engine, p Params) *Grid {
			return Fig9(ctx, eng, p.Procs, p.OpsEach)
		},
	},
	"chaos": {
		Name: "chaos",
		Doc:  "Fig 9 workload under the scripted fault plan, recovery counters included (procs, ops_each, seed)",
		Schema: Schema{
			ListParam("procs", "process-count sweep",
				[]int{8, 16}, MinProcs, MaxProcs, MaxSweepPoints),
			IntParam("ops_each", "fetch-and-add ops per worker rank", 10, 1, MaxOpsEach),
			UintParam("seed", "fault plan + jitter seed", 42),
		},
		run: func(ctx context.Context, eng *sweep.Engine, p Params) *Grid {
			return Chaos(ctx, eng, p.Procs, p.OpsEach, p.Seed)
		},
	},
	"scf": {
		Name: "scf",
		Doc:  "Fig 11 NWChem SCF proxy at reduced scale, Default vs Async Thread (procs, per_node, iters)",
		Schema: Schema{
			ListParam("procs", "process-count sweep",
				[]int{16, 32}, MinProcs, MaxProcs, MaxSweepPoints),
			IntParam("per_node", "ranks per node", 16, 1, MaxPerNode),
			IntParam("iters", "SCF cycles", 1, 1, MaxIters),
		},
		run: func(ctx context.Context, eng *sweep.Engine, p Params) *Grid {
			scfg := nwchem.Config{Mol: nwchem.NewMolecule([]int{8, 6, 6, 8, 6, 6}),
				Iterations: p.Iters, FlopRate: 2e7}
			return Fig11(ctx, eng, p.Procs, p.PerNode, scfg)
		},
	},
	"tableii": {
		Name:   "tableii",
		Doc:    "Table II empirical PAMI time/space attribute values (no parameters)",
		Schema: Schema{},
		run: func(ctx context.Context, eng *sweep.Engine, p Params) *Grid {
			return TableII()
		},
	},
}

// LookupScenario resolves a scenario by name.
func LookupScenario(name string) (*Scenario, bool) {
	s, ok := scenarios[name]
	return s, ok
}

// Scenarios lists every registered scenario, sorted by name.
func Scenarios() []*Scenario {
	out := make([]*Scenario, 0, len(scenarios))
	for _, s := range scenarios {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
