package bench

import (
	"context"

	"repro/internal/armci"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// hammer is the fetch-and-add traffic shape, one simulation of it: ranks
// 1..p-1 each issue opsEach fetch-and-adds on a rank-0 counter — the
// paper's load-balance-counter micro-kernel — while rank 0 sleeps in
// 300 us chunks (compute: t_compute in §IV.B.3) or 1 us ones, calling
// the progress engine between them when poll is set (the default mode's
// only service opportunity; the async thread and NIC-executed AMOs need
// none). cfg carries everything else: placement, mode, seed, fault plan,
// network parameters. It returns the world it ran (for what the run cost:
// events, switches), the mean latency the workers observed and how many
// ops exhausted their retry budget (zero without faults).
//
// Worker completion is signalled through a second simulated counter on
// rank 0 (not host memory), and each rank writes only its own slot, so
// the body stays race-free and deterministic when the world's ranks
// execute on parallel lanes (Config.Shards > 1).
func hammer(cfg armci.Config, opsEach int, compute, poll bool) (w *armci.World, meanUS float64, errs int) {
	procs := cfg.Procs
	faulted := cfg.Fault != nil
	slots := make([]struct {
		lat  sim.Time
		errs int
	}, procs)
	w = armci.MustRun(cfg, func(th *sim.Thread, rt *armci.Runtime) {
		// Rank-0 layout: the hammered counter, then the done tally.
		a := rt.Malloc(th, 16)
		done := a.At(0).Add(8)
		if rt.Rank == 0 {
			for rt.Space().GetInt64(done.Addr) < int64(procs-1) {
				if compute {
					th.Sleep(300 * sim.Microsecond)
				} else {
					th.Sleep(sim.Microsecond)
				}
				if poll {
					rt.Progress(th)
				}
			}
			return
		}
		alignToEpoch(th, faulted)
		me := &slots[rt.Rank]
		for i := 0; i < opsEach; i++ {
			t0 := th.Now()
			if _, err := rt.FetchAddErr(th, a.At(0), 1); err != nil {
				me.errs++
			}
			me.lat += th.Now() - t0
		}
		// The done tally must land even under faults or rank 0 spins
		// until the job timeout: retry past exhausted budgets, which is
		// safe because fault windows are bounded.
		for {
			if _, err := rt.FetchAddErr(th, done, 1); err == nil {
				break
			}
			th.Sleep(sim.Millisecond)
		}
	})
	var total sim.Time
	for _, s := range slots {
		total += s.lat
		errs += s.errs
	}
	return w, sim.ToMicros(total) / float64((procs-1)*opsEach), errs
}

// fig9Point is one (procs, placement, mode) cell of the figure: the
// hammer with rank 0 polling the progress engine exactly when there is
// no async thread to do it.
func fig9Point(c *sweep.Ctx, procs, perNode int, async, compute bool, opsEach int) float64 {
	_, us, _ := hammer(c.Cfg(armci.Config{Procs: procs, ProcsPerNode: perNode, AsyncThread: async}),
		opsEach, compute, !async)
	return us
}

// Fig9Point measures the mean fetch-and-add latency observed by ranks
// 1..p-1 hammering a counter on rank 0 under one configuration:
//
//   - perNode: the processes-per-node placement (the figure uses 16; the
//     ablations use 1/node to expose target-side serialization);
//   - async=false: the default mode, where the counter is only serviced
//     when rank 0's main thread calls the progress engine;
//   - compute=true: rank 0 "computes" in ~300 us chunks between progress
//     opportunities.
func Fig9Point(ctx context.Context, eng *sweep.Engine, procs, perNode int, async, compute bool, opsEach int) float64 {
	return one(ctx, eng, func(c *sweep.Ctx) float64 {
		return fig9Point(c, procs, perNode, async, compute, opsEach)
	})
}

// fig9Variants is the figure's column order: {default, async-thread} x
// {idle, computing} rank 0.
var fig9Variants = []struct{ async, compute bool }{
	{false, false}, {true, false}, {false, true}, {true, true},
}

// Fig9 regenerates the read-modify-write figure: average fetch-and-add
// latency versus process count for {default, async-thread} x {idle,
// computing} rank 0. Expected shape: D and AT comparable when rank 0 is
// idle; D collapses once rank 0 computes; AT latency grows linearly with
// p (no hardware AMOs to offload to).
//
// All len(procCounts) x 4 sweep points are independent simulations and
// fan out across the sweep workers; rows are keyed by configuration
// index, so the table is identical at any worker count.
func Fig9(ctx context.Context, eng *sweep.Engine, procCounts []int, opsEach int) *Grid {
	g := &Grid{Title: "Fig 9: fetch-and-add latency on a rank-0 counter",
		Header: []string{"procs", "D_idle_us", "AT_idle_us", "D_compute_us", "AT_compute_us"}}
	nv := len(fig9Variants)
	vals := sweep.MapCtx(eng, ctx, len(procCounts)*nv, func(c *sweep.Ctx, i int) float64 {
		v := fig9Variants[i%nv]
		return fig9Point(c, procCounts[i/nv], 16, v.async, v.compute, opsEach)
	})
	for pi, p := range procCounts {
		g.AddF(2, float64(p), vals[pi*nv], vals[pi*nv+1], vals[pi*nv+2], vals[pi*nv+3])
	}
	g.Note("t_compute = 300 us chunks on rank 0, as in the paper")
	return g
}
