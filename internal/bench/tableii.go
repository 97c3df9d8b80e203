package bench

import (
	"context"
	"fmt"

	"repro/internal/armci"
	"repro/internal/network"
	"repro/internal/pami"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// TableII regenerates the empirical attribute table: the measured time
// and space costs of the PAMI objects the ARMCI design is built from.
// Paper values: α=4 B, β=0.3 µs, γ=8 B, δ=43 µs, context creation
// 3821-4271 µs.
func TableII() *Grid {
	g := &Grid{Title: "Table II: empirical values of time and space attributes",
		Header: []string{"attribute", "symbol", "measured", "paper"}}

	k := sim.NewKernel()
	p := network.DefaultParams()
	m := pami.NewMachine(k, topology.ForProcs(2, 1), p, 1)
	var ctxT, epT, regT sim.Time
	var epB, regB, ctxB int
	k.Spawn("probe", func(th *sim.Thread) {
		c := m.NewClient(th, 0)
		t0 := th.Now()
		c.CreateContexts(th, 1)
		ctxT = th.Now() - t0
		t0 = th.Now()
		c.CreateEndpoint(th, 1, 0)
		epT = th.Now() - t0
		a := c.Space.Alloc(1 << 20)
		t0 = th.Now()
		c.RegisterMemory(th, a, 1<<20)
		regT = th.Now() - t0
		epB, regB, ctxB = c.EndpointBytes, c.RegionBytes, c.ContextBytes
	})
	if err := k.Run(); err != nil {
		panic(err)
	}

	g.Add("message size range", "m", "16 B - 1 MB", "16 B - 1 MB")
	g.Add("endpoint space", "alpha", fmt.Sprintf("%d B", epB), "4 B")
	g.Add("endpoint creation", "beta", fmt.Sprintf("%.2f us", sim.ToMicros(epT)), "0.3 us")
	g.Add("memory region space", "gamma", fmt.Sprintf("%d B", regB), "8 B")
	g.Add("memory region creation", "delta", fmt.Sprintf("%.1f us", sim.ToMicros(regT)), "43 us")
	g.Add("context space", "epsilon", fmt.Sprintf("%d B", ctxB), "varies")
	g.Add("context creation", "-", fmt.Sprintf("%.0f us", sim.ToMicros(ctxT)), "3821-4271 us")
	g.Add("contexts", "rho", "1-2", "1-2")
	g.Add("communication clique", "zeta", "1-p", "1-p")
	g.Add("active global structures", "sigma", "1-7", "1-7")
	g.Add("local comm buffers", "tau", "1-3", "1-3")
	return g
}

// EqValidation compares the simulator against the paper's analytic models
// (Eqs. 7-9): RDMA get vs the active-message fallback at several sizes.
// The fallback must cost one extra remote software overhead (the second o
// of Eq. 8) and strictly dominate RDMA.
//
// The two protocol variants are independent simulations and run as two
// sweep tasks; columns are keyed by variant index.
func EqValidation(ctx context.Context, eng *sweep.Engine, sizes []int, iters int) *Grid {
	g := &Grid{Title: "Eq 7/8: RDMA get vs fallback get (measured, us)",
		Header: []string{"bytes", "rdma_us", "fallback_us", "ratio"}}

	cols := sweep.MapCtx(eng, ctx, 2, func(c *sweep.Ctx, i int) []float64 {
		if i == 0 {
			return measureRDMA(c, sizes, iters)
		}
		return measureFallback(c, sizes, iters)
	})
	rdma, fallback := cols[0], cols[1]
	for i, m := range sizes {
		g.AddF(3, float64(m), rdma[i], fallback[i], fallback[i]/rdma[i])
	}
	g.Note("fallback pays the extra remote o of Eq. 8 and needs target progress")
	return g
}

// measureRDMA times blocking gets with unlimited region registrations
// (MaxRegions=0), so every transfer takes the RDMA fast path.
func measureRDMA(c *sweep.Ctx, sizes []int, iters int) []float64 {
	var out []float64
	cfg := c.Cfg(armci.Config{Procs: 2, ProcsPerNode: 1, AsyncThread: true, MaxRegions: 0})
	armci.MustRun(cfg, func(th *sim.Thread, rt *armci.Runtime) {
		a := rt.Malloc(th, sizes[len(sizes)-1])
		if rt.Rank != 0 {
			return
		}
		local := rt.LocalAlloc(th, sizes[len(sizes)-1])
		rt.Get(th, a.At(1), local, 16) // warm
		for _, m := range sizes {
			t0 := th.Now()
			for i := 0; i < iters; i++ {
				rt.Get(th, a.At(1), local, m)
			}
			out = append(out, sim.ToMicros(th.Now()-t0)/float64(iters))
		}
	})
	return out
}

// measureFallback disables local registration entirely (MaxRegions=-1),
// forcing every get onto the active-message fallback of Eq. 8.
func measureFallback(c *sweep.Ctx, sizes []int, iters int) []float64 {
	var out []float64
	cfg := c.Cfg(armci.Config{Procs: 2, ProcsPerNode: 1, AsyncThread: true, MaxRegions: -1})
	armci.MustRun(cfg, func(th *sim.Thread, rt *armci.Runtime) {
		a := rt.Malloc(th, sizes[len(sizes)-1])
		if rt.Rank != 0 {
			return
		}
		local := rt.Space().Alloc(sizes[len(sizes)-1])
		rt.Get(th, a.At(1), local, 16)
		for _, m := range sizes {
			t0 := th.Now()
			for i := 0; i < iters; i++ {
				rt.Get(th, a.At(1), local, m)
			}
			out = append(out, sim.ToMicros(th.Now()-t0)/float64(iters))
		}
	})
	return out
}
