package bench

import (
	"context"

	"repro/internal/armci"
	"repro/internal/nwchem"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Fig11 regenerates the NWChem SCF figure: wall time of the Fock build
// with Default versus Async-Thread progress across process counts, with
// the time-in-counter breakdown that explains the gap. Paper headline:
// the asynchronous thread reduces execution time by up to 30% at 4096
// processes on 6 waters / 644 basis functions.
//
// Each (procs, mode) cell is one independent simulation fanned across
// the sweep workers; rows are assembled by process-count index (even
// slots Default, odd slots Async-Thread), never completion order.
func Fig11(ctx context.Context, eng *sweep.Engine, procCounts []int, perNode int, scfg nwchem.Config) *Grid {
	g := &Grid{Title: "Fig 11: NWChem SCF proxy, Default (D) vs Async Thread (AT)",
		Header: []string{"procs", "D_ms", "AT_ms", "reduction_pct",
			"D_counter_ms", "AT_counter_ms", "D_get_ms", "AT_get_ms", "compute_ms"}}
	results := sweep.MapCtx(eng, ctx, 2*len(procCounts), func(c *sweep.Ctx, i int) nwchem.Result {
		cfg := c.Cfg(armci.Config{Procs: procCounts[i/2], ProcsPerNode: perNode, AsyncThread: i%2 == 1})
		return nwchem.Experiment(cfg, scfg)
	})
	for pi, p := range procCounts {
		d, at := results[2*pi], results[2*pi+1]
		red := 100 * (1 - float64(at.WallTime)/float64(d.WallTime))
		g.AddF(2, float64(p),
			sim.ToMillis(d.WallTime), sim.ToMillis(at.WallTime), red,
			sim.ToMillis(d.CounterWait), sim.ToMillis(at.CounterWait),
			sim.ToMillis(d.GetWait), sim.ToMillis(at.GetWait),
			sim.ToMillis(at.Compute))
		if d.Energy != at.Energy {
			g.Note("WARNING: energies differ at p=%d (%v vs %v)", p, d.Energy, at.Energy)
		}
	}
	if scfg.Mol != nil {
		g.Note("%d basis functions, %d tasks/iteration, %d iterations",
			scfg.Mol.NBF, scfg.Mol.Tasks(), scfg.Iterations)
	}
	return g
}

// SCFPoint runs one SCF experiment through the sweep-engine path (child
// registry, shard budget), for drivers that need a single (procs, mode)
// cell rather than the whole Fig 11 sweep.
func SCFPoint(ctx context.Context, eng *sweep.Engine, procs, perNode int, async bool, scfg nwchem.Config) nwchem.Result {
	return one(ctx, eng, func(c *sweep.Ctx) nwchem.Result {
		return nwchem.Experiment(c.Cfg(armci.Config{
			Procs: procs, ProcsPerNode: perNode, AsyncThread: async}), scfg)
	})
}
