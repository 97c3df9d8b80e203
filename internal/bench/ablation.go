package bench

import (
	"context"

	"repro/internal/armci"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// Every ablation below assembles its grid from a sweep.Map result slice,
// indexed by configuration — row order is fixed by the config list, never
// by completion order, so tables are byte-stable at any -parallel N.

// AblationContexts quantifies §III.D's multiple-context design. With a
// single context (rho=1) the asynchronous thread and the main thread
// share one progress engine and its lock: while the async thread drains
// expensive remote accumulates, the main thread cannot retire its own
// local completions ("the main thread may not be able to make progress on
// local completions, while the asynchronous thread holds the lock").
// With rho=2 remote service lands on a second context and the main
// thread's blocking operations are undisturbed.
//
// Rank 0's main thread runs blocking gets (measured); rank 2 floods rank
// 0 with large accumulates that the async thread must apply.
func AblationContexts(ctx context.Context, eng *sweep.Engine, opsEach int) *Grid {
	g := &Grid{Title: "Ablation (SIII.D): async thread with 1 vs 2 PAMI contexts",
		Header: []string{"contexts", "main_get_us", "lock_contended"}}
	ctxCounts := []int{1, 2}
	pts := sweep.MapCtx(eng, ctx, len(ctxCounts), func(c *sweep.Ctx, i int) contextsPoint {
		return ablationContextsPoint(c, ctxCounts[i], opsEach)
	})
	for i, nCtx := range ctxCounts {
		g.AddF(2, float64(nCtx), pts[i].meanUS, float64(pts[i].contended))
	}
	g.Note("rho=2 isolates the main thread's completions from remote service")
	return g
}

// contextsPoint is one AblationContexts run: rank 0's mean blocking-get
// latency and its contexts' contended lock acquisitions.
type contextsPoint struct {
	meanUS    float64
	contended uint64
}

func ablationContextsPoint(c *sweep.Ctx, nCtx, opsEach int) (pt contextsPoint) {
	const accBytes = 64 * 1024 // ~16 us of target-side apply time each
	cfg := c.Cfg(armci.Config{Procs: 3, ProcsPerNode: 1, AsyncThread: true, Contexts: nCtx})
	var sumUS float64 // rank 0's get latencies, in microseconds
	gets := 0
	armci.MustRun(cfg, func(th *sim.Thread, rt *armci.Runtime) {
		a := rt.Malloc(th, accBytes)
		b := rt.Malloc(th, 4096)
		// Stop flag for the flooder, hosted in rank 2's own memory so the
		// signal rides the simulation (lane-clean under Config.Shards)
		// instead of a host variable shared across rank threads.
		stop := b.At(2)
		switch rt.Rank {
		case 0:
			local := rt.LocalAlloc(th, 4096)
			// Let the accumulate flood establish itself first.
			th.Sleep(400 * sim.Microsecond)
			for i := 0; i < opsEach; i++ {
				t0 := th.Now()
				rt.Get(th, b.At(1), local, 1024)
				sumUS += sim.ToMicros(th.Now() - t0)
				gets++
			}
			rt.FetchAdd(th, stop, 1)
			for i := range rt.C.Contexts {
				pt.contended += rt.C.Contexts[i].Lock.Contended
			}
		case 2:
			// Paced accumulate flood: ~80% duty cycle on rank 0's
			// service context, without unbounded queue growth.
			local := rt.LocalAlloc(th, accBytes)
			for rt.Space().GetInt64(stop.Addr) == 0 {
				rt.NbAcc(th, local, a.At(0), accBytes, 1.0)
				th.Sleep(20 * sim.Microsecond)
			}
		}
	})
	if gets > 0 {
		pt.meanUS = sumUS / float64(gets)
	}
	return pt
}

// AblationHardwareAMO answers the paper's closing question (§IV.B.3):
// what if the network supported generic atomics in hardware, as Cray
// Gemini and InfiniBand do? It sweeps the Fig 9 micro-kernel with rank 0
// computing, comparing the async-thread software path against NIC-executed
// fetch-and-add. The hardware path needs no async thread and its latency
// stays far below the software path's linear-in-p growth.
func AblationHardwareAMO(ctx context.Context, eng *sweep.Engine, procCounts []int, opsEach int) *Grid {
	g := &Grid{Title: "Ablation (SIV.B.3): software AMO (async thread) vs hardware NIC AMO",
		Header: []string{"procs", "AT_software_us", "hw_amo_us"}}
	// Two independent simulations per process count: even indices are the
	// software path, odd the hardware path.
	vals := sweep.MapCtx(eng, ctx, 2*len(procCounts), func(c *sweep.Ctx, i int) float64 {
		p := procCounts[i/2]
		if i%2 == 0 {
			return fig9Point(c, p, 1, true, true, opsEach)
		}
		return hardwareAMOPoint(c, p, opsEach)
	})
	for i, p := range procCounts {
		g.AddF(2, float64(p), vals[2*i], vals[2*i+1])
	}
	g.Note("one rank per node; hardware AMOs make the async thread unnecessary")
	return g
}

// hardwareAMOPoint is the hammer with NIC-executed fetch-and-add: rank 0
// computes throughout and never needs to enter the progress engine.
func hardwareAMOPoint(c *sweep.Ctx, procs, opsEach int) float64 {
	params := network.DefaultParams()
	params.HardwareAMO = true
	_, us, _ := hammer(c.Cfg(armci.Config{Procs: procs, ProcsPerNode: 1, Params: params}),
		opsEach, true, false)
	return us
}

// AblationStridedProtocol quantifies §III.C.2's protocol choice: a
// strided patch sent as a list of non-blocking RDMA chunks (the paper's
// design, leveraging the torus's messaging rate) versus the legacy
// pack/unpack path (one packed message plus target-side unpack, needing
// flow control and remote progress). The chunk list wins for all but
// tall-skinny patches, which is why TypedThreshold defaults low.
func AblationStridedProtocol(ctx context.Context, eng *sweep.Engine, l0s []int, total int) *Grid {
	g := &Grid{Title: "Ablation (SIII.C.2): chunk-list RDMA vs pack/unpack for strided puts",
		Header: []string{"l0_bytes", "chunks_us", "packed_us"}}
	// Two independent simulations per chunk size: even indices force the
	// chunk-list path, odd the packed path.
	vals := sweep.MapCtx(eng, ctx, 2*len(l0s), func(c *sweep.Ctx, i int) float64 {
		return stridedPoint(c, l0s[i/2], total, i%2 == 1)
	})
	for i, l0 := range l0s {
		g.AddF(2, float64(l0), vals[2*i], vals[2*i+1])
	}
	g.Note("%d-byte patch; packed path also needs target progress (not shown: D-mode stalls)", total)
	return g
}

func stridedPoint(c *sweep.Ctx, l0, total int, forceTyped bool) float64 {
	cfg := c.Cfg(armci.Config{Procs: 2, ProcsPerNode: 1, AsyncThread: true})
	if forceTyped {
		cfg.TypedThreshold = total + 1 // everything takes the packed path
	} else {
		cfg.TypedThreshold = 1 // everything takes chunk-list RDMA
	}
	var us float64
	armci.MustRun(cfg, func(th *sim.Thread, rt *armci.Runtime) {
		a := rt.Malloc(th, total)
		if rt.Rank != 0 {
			return
		}
		local := rt.LocalAlloc(th, total)
		counts := []int{l0, total / l0}
		strides := []int{l0}
		rt.PutS(th, local, strides, a.At(1), strides, counts) // warm
		rt.Fence(th, 1)
		t0 := th.Now()
		rt.PutS(th, local, strides, a.At(1), strides, counts)
		rt.Fence(th, 1)
		us = sim.ToMicros(th.Now() - t0)
	})
	return us
}

// AblationRouting quantifies the deterministic-vs-dynamic routing gap
// the paper's §II.A flags as unexposed software capability: many
// concurrent transfers funneling into one node (a hotspot) under
// dimension-order routes versus adaptive minimal routes. Network layer
// only — the ARMCI fence protocol requires deterministic ordering.
func AblationRouting(ctx context.Context, eng *sweep.Engine, flows, sizeKB int) *Grid {
	g := &Grid{Title: "Ablation (SII.A): deterministic DOR vs adaptive routing (hotspot)",
		Header: []string{"flows", "DOR_us", "adaptive_us"}}
	makespan := func(adaptive bool, n int) float64 {
		k := sim.NewKernel()
		tor := topology.New([topology.NumDims]int{4, 4, 4, 2, 2}, 1)
		p := network.DefaultParams()
		p.AdaptiveRouting = adaptive
		nw := network.New(k, tor, p)
		var last sim.Time
		k.Spawn("drv", func(th *sim.Thread) {
			wg := sim.NewWaitGroup(k)
			wg.Add(n)
			for i := 0; i < n; i++ {
				src := 1 + (i*11)%(tor.Nodes()-1)
				nw.Send(src, 0, sizeKB<<10, network.Data, func() {
					if k.Now() > last {
						last = k.Now()
					}
					wg.Done()
				})
			}
			wg.Wait(th)
		})
		if err := k.Run(); err != nil {
			panic(err)
		}
		return sim.ToMicros(last)
	}
	var flowCounts []int
	for n := 4; n <= flows; n *= 2 {
		flowCounts = append(flowCounts, n)
	}
	// Pure network-layer simulations (no ARMCI world, no registry); one
	// sweep task per flow count measures both routing modes.
	type point struct{ dor, adaptive float64 }
	pts := sweep.MapCtx(eng, ctx, len(flowCounts), func(c *sweep.Ctx, i int) point {
		return point{dor: makespan(false, flowCounts[i]), adaptive: makespan(true, flowCounts[i])}
	})
	for i, n := range flowCounts {
		g.AddF(1, float64(n), pts[i].dor, pts[i].adaptive)
	}
	g.Note("%d KB per flow into node 0 of a 4x4x4x2x2 torus", sizeKB)
	return g
}

// AblationConsistency quantifies §III.E: the dgemm-style pattern (reads
// of A/B interleaved with accumulates to C) under naive per-target
// conflict tracking versus per-memory-region tracking. Per-region must
// eliminate the false-positive fences and run faster.
func AblationConsistency(ctx context.Context, eng *sweep.Engine, tiles int) *Grid {
	g := &Grid{Title: "Ablation (SIII.E): naive cs_tgt vs per-region cs_mr tracking",
		Header: []string{"mode", "time_ms", "fences", "avoided"}}
	modes := []armci.ConsistencyMode{armci.ConsistencyNaive, armci.ConsistencyPerRegion}
	type point struct {
		elapsed         sim.Time
		fences, avoided int64
	}
	pts := sweep.MapCtx(eng, ctx, len(modes), func(c *sweep.Ctx, i int) point {
		var pt point
		cfg := c.Cfg(armci.Config{Procs: 2, ProcsPerNode: 1, AsyncThread: true, Consistency: modes[i]})
		armci.MustRun(cfg, func(th *sim.Thread, rt *armci.Runtime) {
			const tile = 16 * 1024
			A := rt.Malloc(th, tile)
			B := rt.Malloc(th, tile)
			C := rt.Malloc(th, tile)
			if rt.Rank != 0 {
				return
			}
			local := rt.LocalAlloc(th, tile)
			t0 := th.Now()
			for i := 0; i < tiles; i++ {
				// dgemm inner step: read next A and B tiles while the
				// previous C accumulate is still in flight.
				rt.NbAcc(th, local, C.At(1), tile, 1.0)
				rt.Get(th, A.At(1), local, tile)
				rt.Get(th, B.At(1), local, tile)
			}
			rt.Fence(th, 1)
			pt.elapsed = th.Now() - t0
			pt.fences = rt.Stats.Get("fence")
			pt.avoided = rt.Stats.Get("conflict.avoided")
		})
		return pt
	})
	for i, mode := range modes {
		name := "naive"
		if mode == armci.ConsistencyPerRegion {
			name = "per-region"
		}
		g.Add(name, f3(sim.ToMillis(pts[i].elapsed)), i64(pts[i].fences), i64(pts[i].avoided))
	}
	g.Note("reads of A/B must not fence the in-flight accumulates to C")
	return g
}
