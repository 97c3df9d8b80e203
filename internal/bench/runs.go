package bench

import (
	"context"

	"repro/internal/nwchem"
	"repro/internal/sweep"
)

// Scale is one size of the run set: every process count, message size
// and repetition count the figure runs read. There are two, Paper and
// Quick; `armci-bench scf -procs/-iters` is the one caller that edits a
// copy.
type Scale struct {
	Name       string
	Sizes      []int // Figs 3-6 message sizes
	Iters      int   // Fig 3 and Eq 7/8 repetitions
	Fig7Procs  int   // Fig 7 partition, 16 ranks per node
	Fig7Stride int   // Fig 7 measures every Fig7Stride-th rank
	Fig9Procs  []int
	HWProcs    []int // §IV.B.3 ablation
	SCFProcs   []int // Fig 11
	SCF        nwchem.Config
}

// Paper is the paper's own configuration: what `make figures`,
// `make scf` and `make report` commit under results/.
var Paper = Scale{
	Name:      "paper",
	Sizes:     PowersOfTwo(4, 20), // 16 B .. 1 MB
	Iters:     20,
	Fig7Procs: 2048, Fig7Stride: 1,
	Fig9Procs: []int{2, 16, 64, 256, 1024, 4096},
	HWProcs:   []int{2, 8, 32, 128, 512},
	SCFProcs:  []int{1024, 2048, 4096},
	SCF:       oneCycle(6),
}

// Quick is the reduced scale: the same runs at process counts and sizes
// small enough for `go test -short` under the race detector, and for
// `armci-bench fig -quick` / `scf -quick`.
var Quick = Scale{
	Name:      "quick",
	Sizes:     PowersOfTwo(4, 17),
	Iters:     5,
	Fig7Procs: 256, Fig7Stride: 4,
	Fig9Procs: []int{2, 16, 64, 256},
	HWProcs:   []int{2, 8, 32, 128},
	SCFProcs:  []int{16, 32},
	SCF:       oneCycle(2),
}

// oneCycle is one SCF cycle of the paper's problem, 6 waters (644 basis
// functions), or of a smaller cluster of them.
func oneCycle(waters int) nwchem.Config {
	c := nwchem.DefaultConfig()
	c.Mol, c.Iterations = nwchem.Waters(waters), 1
	return c
}

// RunNames lists every run of the set: Table II, the figures `armci-bench
// fig` prints, in its order, and Fig 11.
var RunNames = []string{"ii", "3", "4", "5", "6", "7", "8", "9",
	"eq", "ctx", "cons", "strided", "route", "hw", "11"}

// Figures is the part of RunNames that `armci-bench fig` prints.
var Figures = RunNames[1 : len(RunNames)-1 : len(RunNames)-1]

// RunSet is the run set at one scale on one engine. A grid is simulated
// the first time it is asked for and kept, so the claims, the renderers
// and the tests that read one figure share one run of it. A RunSet is not
// safe for concurrent use; a grid computed under a cancelled context is
// partial.
type RunSet struct {
	Scale Scale
	ctx   context.Context
	eng   *sweep.Engine
	grids map[string]*Grid
}

// NewRunSet returns the run set at scale s; nothing is simulated until a
// grid is asked for.
func NewRunSet(ctx context.Context, eng *sweep.Engine, s Scale) *RunSet {
	return &RunSet{Scale: s, ctx: ctx, eng: eng, grids: map[string]*Grid{}}
}

// Grid returns the named run's grid (one of RunNames).
func (r *RunSet) Grid(name string) *Grid {
	g, ok := r.grids[name]
	if !ok {
		g = r.run(name)
		r.grids[name] = g
	}
	return g
}

func (r *RunSet) run(name string) *Grid {
	s, ctx, eng := r.Scale, r.ctx, r.eng
	switch name {
	case "ii":
		return TableII()
	case "3":
		return Fig3(ctx, eng, s.Sizes, s.Iters)
	case "4":
		return Fig4(ctx, eng, s.Sizes, 16)
	case "5":
		return Fig5(r.Grid("3"))
	case "6":
		return Fig6(r.Grid("4"))
	case "7":
		return Fig7(ctx, eng, s.Fig7Procs, 16, 4, s.Fig7Stride)
	case "8":
		return Fig8(ctx, eng, PowersOfTwo(8, 20), 1<<20)
	case "9":
		return Fig9(ctx, eng, s.Fig9Procs, 10)
	case "eq":
		return EqValidation(ctx, eng, []int{16, 256, 4096, 65536, 1 << 20}, s.Iters)
	case "ctx":
		return AblationContexts(ctx, eng, 100)
	case "cons":
		return AblationConsistency(ctx, eng, 100)
	case "strided":
		return AblationStridedProtocol(ctx, eng, PowersOfTwo(5, 17), 1<<20)
	case "route":
		return AblationRouting(ctx, eng, 32, 64)
	case "hw":
		return AblationHardwareAMO(ctx, eng, s.HWProcs, 10)
	case "11":
		return Fig11(ctx, eng, s.SCFProcs, 16, s.SCF)
	}
	panic("bench: no run named " + name)
}
