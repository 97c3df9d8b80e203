// Composition-pattern cores: the engine-explicit, lane-clean grid
// runners behind internal/scenario's traffic patterns. Each takes a
// typed spec (already validated by the pattern's schema), fans its
// independent simulations across the sweep engine, and assembles rows
// keyed by configuration index — so every grid is byte-identical at any
// sweep-worker or lane-shard count.
//
// Unlike the fixed-figure runners, these accept a mode axis ({default,
// async-thread} column sets) and an optional fault-plan factory: the
// plan is rebuilt fresh for every simulation (fault.Plan injectors are
// stateful), and all remote ops go through the error-returning forms so
// exhausted retry budgets surface as counted errors instead of panics.
//
// Each traffic shape has one rank body, shared with the figure that
// measures the same shape: pingRun (Fig 3 and PingGrid) here, hammer
// (Fig 9, the hardware-AMO ablation and FetchAddGrid) in amo.go. Titles
// and headers stay with the callers.
package bench

import (
	"context"
	"fmt"

	"repro/internal/armci"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// FaultEpoch is the virtual instant measured pattern loops begin when a
// fault plan is attached: workers sleep until it after setup, so a
// spec's fault windows land inside the op stream no matter how long
// collective Malloc and registration take (~9 ms at small scale, more
// with procs). Compose specs should place their windows at or after this
// epoch; ChaosPlan's are relative to it.
const FaultEpoch = 30 * sim.Millisecond

// ModeName is the column prefix of one engine mode: D for the default
// (progress only when rank 0 enters the runtime) and AT for the
// asynchronous progress thread.
func ModeName(async bool) string {
	if async {
		return "AT"
	}
	return "D"
}

// alignToEpoch parks the calling thread until FaultEpoch when a fault
// plan is active, anchoring the measured loop to the plan's windows.
func alignToEpoch(th *sim.Thread, faulted bool) {
	if !faulted {
		return
	}
	if d := FaultEpoch - th.Now(); d > 0 {
		th.Sleep(d)
	}
}

// PingSpec parameterizes the ping pattern: Fig 3's contiguous get/put
// latency loop between two adjacent nodes, generalized with an engine
// mode axis and an optional fault plan.
type PingSpec struct {
	Sizes   []int
	Weights []int // per-size repetition multipliers (mixture); nil = all 1
	Iters   int
	Modes   []bool             // async-thread values, column order
	Fault   func() *fault.Plan // nil = fault-free; fresh plan per simulation
	Seed    uint64
}

// weight returns the repetition multiplier for size index si.
func (sp PingSpec) weight(si int) int {
	if sp.Weights == nil {
		return 1
	}
	return sp.Weights[si]
}

// pingResult is one ping simulation: mean get/put latency per size, plus
// the ops that exhausted their retry budget (zero without faults).
type pingResult struct {
	get, put []float64
	errs     int
}

// pingRun is the ping traffic shape, one simulation of it: two processes
// on adjacent nodes, rank 0 timing blocking gets then puts at each size.
// The size loop runs inside a single world so warmed caches carry across
// sizes, exactly as Fig 3 measures. Only rank 0 issues ops, so it alone
// writes the result.
func pingRun(c *sweep.Ctx, sp PingSpec, async bool) pingResult {
	cfg := c.Cfg(armci.Config{Procs: 2, ProcsPerNode: 1, AsyncThread: async, Seed: sp.Seed})
	faulted := sp.Fault != nil
	if faulted {
		cfg.Fault = sp.Fault()
	}
	r := pingResult{get: make([]float64, len(sp.Sizes)), put: make([]float64, len(sp.Sizes))}
	maxSize := sp.Sizes[len(sp.Sizes)-1]
	armci.MustRun(cfg, func(th *sim.Thread, rt *armci.Runtime) {
		aGet, aPut, local, ok := warmPair(th, rt, maxSize)
		if !ok {
			return
		}
		alignToEpoch(th, faulted)
		for si, m := range sp.Sizes {
			iters := sp.Iters * sp.weight(si)
			t0 := th.Now()
			for i := 0; i < iters; i++ {
				if err := rt.GetErr(th, aGet.At(1), local, m); err != nil {
					r.errs++
				}
			}
			r.get[si] = sim.ToMicros(th.Now()-t0) / float64(iters)

			t0 = th.Now()
			for i := 0; i < iters; i++ {
				if err := rt.PutErr(th, local, aPut.At(1), m); err != nil {
					r.errs++
				}
			}
			r.put[si] = sim.ToMicros(th.Now()-t0) / float64(iters)
		}
	})
	return r
}

// PingGrid runs one ping simulation per mode.
func PingGrid(ctx context.Context, eng *sweep.Engine, sp PingSpec) *Grid {
	g := &Grid{Title: "ping: contiguous get/put latency (adjacent nodes)",
		Header: []string{"bytes"}}
	for _, async := range sp.Modes {
		m := ModeName(async)
		g.Header = append(g.Header, m+"_get_us", m+"_put_us")
	}
	res := sweep.MapCtx(eng, ctx, len(sp.Modes), func(c *sweep.Ctx, mi int) pingResult {
		return pingRun(c, sp, sp.Modes[mi])
	})
	for si, m := range sp.Sizes {
		row := []float64{float64(m)}
		for mi := range sp.Modes {
			row = append(row, res[mi].get[si], res[mi].put[si])
		}
		g.AddF(3, row...)
	}
	if sp.Weights != nil {
		// A mixture distribution: report the traffic-weighted means too.
		var wsum float64
		for si := range sp.Sizes {
			wsum += float64(sp.weight(si))
		}
		for mi, async := range sp.Modes {
			var wg, wp float64
			for si := range sp.Sizes {
				wg += float64(res[mi].get[si] * float64(sp.weight(si)))
				wp += float64(res[mi].put[si] * float64(sp.weight(si)))
			}
			g.Note("%s weighted mean: get %.3f us, put %.3f us",
				ModeName(async), wg/wsum, wp/wsum)
		}
	}
	if sp.Fault != nil {
		for mi, async := range sp.Modes {
			g.Note("%s: %d ops exhausted their retry budget", ModeName(async), res[mi].errs)
		}
	}
	return g
}

// FetchAddSpec parameterizes the fetchadd pattern: Fig 9's rank-0
// counter hammered by every other rank, with mode, compute, and fault
// axes.
type FetchAddSpec struct {
	Procs   []int
	PerNode int
	OpsEach int
	Compute bool // rank 0 computes in 300 us chunks between progress calls
	Modes   []bool
	Fault   func() *fault.Plan
	Seed    uint64
}

// FetchAddGrid runs len(Procs) x len(Modes) independent simulations and
// reports the mean fetch-and-add latency per (procs, mode) cell, plus
// exhausted-op counts when a fault plan is attached.
func FetchAddGrid(ctx context.Context, eng *sweep.Engine, sp FetchAddSpec) *Grid {
	g := &Grid{Title: "fetchadd: fetch-and-add latency on a rank-0 counter",
		Header: []string{"procs"}}
	for _, async := range sp.Modes {
		g.Header = append(g.Header, ModeName(async)+"_us")
	}
	if sp.Fault != nil {
		for _, async := range sp.Modes {
			g.Header = append(g.Header, ModeName(async)+"_errs")
		}
	}
	type cell struct {
		us   float64
		errs int
	}
	nm := len(sp.Modes)
	cells := sweep.MapCtx(eng, ctx, len(sp.Procs)*nm, func(c *sweep.Ctx, i int) cell {
		async := sp.Modes[i%nm]
		cfg := c.Cfg(armci.Config{Procs: sp.Procs[i/nm], ProcsPerNode: sp.PerNode,
			AsyncThread: async, Seed: sp.Seed})
		if sp.Fault != nil {
			cfg.Fault = sp.Fault()
		}
		_, us, errs := hammer(cfg, sp.OpsEach, sp.Compute, !async)
		return cell{us, errs}
	})
	for pi, p := range sp.Procs {
		row := []string{fmt.Sprint(p)}
		for mi := 0; mi < nm; mi++ {
			row = append(row, fmt.Sprintf("%.2f", cells[pi*nm+mi].us))
		}
		if sp.Fault != nil {
			for mi := 0; mi < nm; mi++ {
				row = append(row, fmt.Sprint(cells[pi*nm+mi].errs))
			}
		}
		g.Add(row...)
	}
	if sp.Compute {
		g.Note("t_compute = 300 us chunks on rank 0, as in the paper")
	}
	return g
}
