package bench

import (
	"context"

	"repro/internal/armci"
	"repro/internal/mem"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// one runs a single simulation task through the sweep engine, so even
// standalone figure runs get the per-run registry and the engine's shard
// budget.
func one[T any](ctx context.Context, eng *sweep.Engine, fn func(c *sweep.Ctx) T) T {
	return sweep.MapCtx(eng, ctx, 1, func(c *sweep.Ctx, _ int) T { return fn(c) })[0]
}

// twoProcCfg is the Fig 3-6/8 setup: two processes on adjacent nodes.
func twoProcCfg(c *sweep.Ctx) armci.Config {
	return c.Cfg(armci.Config{Procs: 2, ProcsPerNode: 1, AsyncThread: true})
}

// warmPair is the prologue the two-process get/put kernels share: one
// remote buffer per direction and, on rank 0 — the only rank that
// measures; ok is false on the other — a local buffer, with the region
// and endpoint caches warmed by one small get and put.
func warmPair(th *sim.Thread, rt *armci.Runtime, size int) (aGet, aPut *armci.Allocation, local mem.Addr, ok bool) {
	aGet = rt.Malloc(th, size)
	aPut = rt.Malloc(th, size)
	if rt.Rank != 0 {
		return aGet, aPut, 0, false
	}
	local = rt.LocalAlloc(th, size)
	rt.Get(th, aGet.At(1), local, 16)
	rt.Put(th, local, aPut.At(1), 16)
	rt.Fence(th, 1)
	return aGet, aPut, local, true
}

// Fig3 regenerates the contiguous latency figure: blocking get and put
// latency versus message size between adjacent nodes — one async-thread
// ping simulation. Paper headline: get(16 B) = 2.89 us, put(16 B) =
// 2.7 us, with a dip at 256 B.
func Fig3(ctx context.Context, eng *sweep.Engine, sizes []int, iters int) *Grid {
	g := &Grid{Title: "Fig 3: contiguous get/put latency (adjacent nodes)",
		Header: []string{"bytes", "get_us", "put_us"}}
	r := one(ctx, eng, func(c *sweep.Ctx) pingResult {
		return pingRun(c, PingSpec{Sizes: sizes, Iters: iters}, true)
	})
	for si, getUS := range r.get { // empty when ctx was cancelled before the run
		g.AddF(3, float64(sizes[si]), getUS, r.put[si])
	}
	return g
}

// bwIters picks a per-size repetition count bounded by total volume.
func bwIters(m int) int {
	iters := (16 << 20) / m
	if iters < 8 {
		iters = 8
	}
	if iters > 512 {
		iters = 512
	}
	return iters
}

// Fig4 regenerates the bandwidth figure: streamed put and windowed get
// bandwidth versus message size. Paper headline: peak 1775 MB/s; the get
// round-trip overhead is visible until ~8 KB.
func Fig4(ctx context.Context, eng *sweep.Engine, sizes []int, window int) *Grid {
	return one(ctx, eng, func(c *sweep.Ctx) *Grid { return fig4(c, sizes, window) })
}

func fig4(c *sweep.Ctx, sizes []int, window int) *Grid {
	g := &Grid{Title: "Fig 4: contiguous get/put bandwidth (adjacent nodes)",
		Header: []string{"bytes", "get_MBs", "put_MBs"}}
	maxSize := sizes[len(sizes)-1]
	armci.MustRun(twoProcCfg(c), func(th *sim.Thread, rt *armci.Runtime) {
		aGet, aPut, local, ok := warmPair(th, rt, maxSize)
		if !ok {
			return
		}
		for _, m := range sizes {
			iters := bwIters(m)

			// Windowed non-blocking gets.
			t0 := th.Now()
			handles := make([]*armci.Handle, 0, window)
			for i := 0; i < iters; i++ {
				handles = append(handles, rt.NbGet(th, aGet.At(1), local, m))
				if len(handles) == window {
					for _, h := range handles {
						h.Wait(th)
					}
					handles = handles[:0]
				}
			}
			for _, h := range handles {
				h.Wait(th)
			}
			getBW := float64(m) * float64(iters) / float64(th.Now()-t0) * 1000

			// Streamed non-blocking puts.
			t0 = th.Now()
			handles = handles[:0]
			for i := 0; i < iters; i++ {
				handles = append(handles, rt.NbPut(th, local, aPut.At(1), m))
				if len(handles) == window {
					for _, h := range handles {
						h.Wait(th)
					}
					handles = handles[:0]
				}
			}
			for _, h := range handles {
				h.Wait(th)
			}
			rt.Fence(th, 1)
			putBW := float64(m) * float64(iters) / float64(th.Now()-t0) * 1000

			g.AddF(1, float64(m), getBW, putBW)
		}
	})
	return g
}

// Fig5 derives the effective latency-per-byte figure (the message
// aggregation inflection point; ~1 ns/byte beyond 4 KB) from a Fig 3
// grid.
func Fig5(fig3 *Grid) *Grid {
	g := &Grid{Title: "Fig 5: effective latency per byte (get)",
		Header: []string{"bytes", "ns_per_byte"}}
	getUS := fig3.Column("get_us")
	for i, m := range fig3.Column("bytes") {
		g.AddF(3, m, getUS[i]*1000/m)
	}
	return g
}

// Fig6 derives the bandwidth-efficiency figure from a Fig 4 grid:
// achieved put bandwidth over the 1.8 GB/s available peak, with the
// measured N1/2. Paper: N1/2 = 2 KB, >= 90% beyond ~16 KB.
func Fig6(fig4 *Grid) *Grid {
	peak := network.DefaultParams().PeakPayloadBandwidth()
	g := &Grid{Title: "Fig 6: bandwidth efficiency vs available peak",
		Header: []string{"bytes", "efficiency"}}
	put := fig4.Column("put_MBs")
	nHalf := -1
	for i, m := range fig4.Column("bytes") {
		eff := put[i] / peak
		g.AddF(3, m, eff)
		if nHalf < 0 && eff >= 0.5 {
			nHalf = int(m)
		}
	}
	g.Note("available peak = %.0f MB/s; measured N1/2 ~ %d bytes (paper: 2 KB)", peak, nHalf)
	return g
}

// Fig7 regenerates the latency-versus-rank figure on the paper's 2048
// process (128 node = 2x2x4x4x2) partition: a pseudo-oscillatory curve
// tracking torus hop distance under the ABCDET mapping, min 2.89 us,
// +35 ns per hop per direction.
func Fig7(ctx context.Context, eng *sweep.Engine, procs, perNode, iters, rankStride int) *Grid {
	return one(ctx, eng, func(c *sweep.Ctx) *Grid { return fig7(c, procs, perNode, iters, rankStride) })
}

func fig7(c *sweep.Ctx, procs, perNode, iters, rankStride int) *Grid {
	g := &Grid{Title: "Fig 7: get latency vs process rank (ABCDET mapping)",
		Header: []string{"rank", "hops", "latency_us"}}
	cfg := c.Cfg(armci.Config{Procs: procs, ProcsPerNode: perNode, AsyncThread: true,
		RegionCacheCap: 8}) // small cache: the LFU path is part of the story
	armci.MustRun(cfg, func(th *sim.Thread, rt *armci.Runtime) {
		a := rt.Malloc(th, 64)
		if rt.Rank != 0 {
			return
		}
		local := rt.LocalAlloc(th, 64)
		tor := rt.W.M.Net.Torus()
		for r := 1; r < procs; r += rankStride {
			rt.Get(th, a.At(r), local, 16) // warm this target
			t0 := th.Now()
			for i := 0; i < iters; i++ {
				rt.Get(th, a.At(r), local, 16)
			}
			us := sim.ToMicros(th.Now()-t0) / float64(iters)
			g.AddF(3, float64(r), float64(tor.RankHops(0, r)), us)
		}
	})
	return g
}

// Fig8 regenerates the strided bandwidth figure: get/put bandwidth of a
// fixed 1 MB patch as the contiguous chunk size l0 varies. The curve
// should track Fig 4 evaluated at message size l0.
func Fig8(ctx context.Context, eng *sweep.Engine, l0s []int, total int) *Grid {
	return one(ctx, eng, func(c *sweep.Ctx) *Grid { return fig8(c, l0s, total) })
}

func fig8(c *sweep.Ctx, l0s []int, total int) *Grid {
	g := &Grid{Title: "Fig 8: strided get/put bandwidth vs chunk size (1MB total)",
		Header: []string{"l0_bytes", "get_MBs", "put_MBs"}}
	armci.MustRun(twoProcCfg(c), func(th *sim.Thread, rt *armci.Runtime) {
		a := rt.Malloc(th, total)
		if rt.Rank != 0 {
			return
		}
		local := rt.LocalAlloc(th, total)
		rt.Get(th, a.At(1), local, 16)
		for _, l0 := range l0s {
			chunks := total / l0
			counts := []int{l0, chunks}
			strides := []int{l0} // dense patch: back-to-back chunks

			t0 := th.Now()
			rt.GetS(th, a.At(1), strides, local, strides, counts)
			getBW := float64(total) / float64(th.Now()-t0) * 1000

			t0 = th.Now()
			rt.PutS(th, local, strides, a.At(1), strides, counts)
			rt.Fence(th, 1)
			putBW := float64(total) / float64(th.Now()-t0) * 1000

			g.AddF(1, float64(l0), getBW, putBW)
		}
	})
	return g
}
