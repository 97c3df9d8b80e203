package main

// replica.go holds the benchmark's own rank bodies: the same ARMCI calls,
// in the same order, as the DSL patterns the sim workloads run (fetchadd,
// ping, halo), driven through armci.Run with host-time marks at the phase
// boundaries. A replica is trusted only if it simulates exactly as many
// events as the DSL run it stands for; the traced run checks that.

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// phases is the host time of one world's life: runtime creation up to
// the first rank entering its body, the collective allocations, the
// operations, and finalize + kernel drain.
type phases struct{ init, malloc, ops, finalize time.Duration }

func (p *phases) add(q phases) {
	p.init += q.init
	p.malloc += q.malloc
	p.ops += q.ops
	p.finalize += q.finalize
}

// replica is one world: its configuration and the body every rank runs.
// The body calls allocated() once its collective allocations are done.
type replica struct {
	cfg  ArmciConfig
	body func(th *Thread, rt *Runtime, allocated func())
}

// timed executes the world once on eng — the workload's own warm engine,
// so the run gets its recycling pool and lane workers — under spans, and
// returns the host time of its phases.
func (r replica) timed(eng *Engine, tr *tracer, opID int) (phases, error) {
	// Marks are nanoseconds since t0; rank threads may run on parallel
	// lane workers, hence the atomics.
	var firstBody, lastAlloc, lastBody atomic.Int64
	root := tr.begin("armci.Run", 0, opID)
	t0 := time.Now()
	storeMax := func(a *atomic.Int64) {
		now := time.Since(t0).Nanoseconds()
		for old := a.Load(); now > old && !a.CompareAndSwap(old, now); old = a.Load() {
		}
	}
	err := sweepMap(eng, 1, func(c *SweepCtx, _ int) error {
		return armciRun(c.Cfg(r.cfg), func(th *Thread, rt *Runtime) {
			firstBody.CompareAndSwap(0, time.Since(t0).Nanoseconds())
			r.body(th, rt, func() { storeMax(&lastAlloc) })
			storeMax(&lastBody)
		})
	})[0]
	end := time.Since(t0).Nanoseconds()
	// The phase spans are cut from the marks after the fact, so recording
	// them costs the run nothing.
	base := t0.Sub(processStart).Nanoseconds()
	for _, s := range []struct {
		name     string
		from, to int64
	}{{"armci.init", 0, firstBody.Load()}, {"armci.malloc", firstBody.Load(), lastAlloc.Load()},
		{"armci.ops", lastAlloc.Load(), lastBody.Load()}, {"armci.finalize", lastBody.Load(), end}} {
		tr.add(s.name, root, opID, base+s.from, base+s.to)
	}
	tr.end(root, fmt.Sprintf("procs=%d", r.cfg.Procs))
	return phases{
		init:     time.Duration(firstBody.Load()),
		malloc:   time.Duration(lastAlloc.Load() - firstBody.Load()),
		ops:      time.Duration(lastBody.Load() - lastAlloc.Load()),
		finalize: time.Duration(end - lastBody.Load()),
	}, err
}

// counted executes the world once on an engine that feeds an obs
// registry (which slows the run, so it is not timed); the caller reads
// the simulated event count off the registry.
func (r replica) counted(eng *Engine) error {
	return sweepMap(eng, 1, func(c *SweepCtx, _ int) error {
		return armciRun(c.Cfg(r.cfg), func(th *Thread, rt *Runtime) { r.body(th, rt, func() {}) })
	})[0]
}

// fetchAddReplica is the fetchadd pattern with compute on and the async
// thread: rank 0 owns the counter and a done tally and computes in
// 300 us chunks until every worker has reported.
func fetchAddReplica(procs, perNode, opsEach int) replica {
	return replica{
		cfg: ArmciConfig{Procs: procs, ProcsPerNode: perNode, AsyncThread: true},
		body: func(th *Thread, rt *Runtime, allocated func()) {
			a := rt.Malloc(th, 16)
			allocated()
			done := a.At(0).Add(8)
			if rt.Rank == 0 {
				for rt.Space().GetInt64(done.Addr) < int64(procs-1) {
					th.Sleep(300 * simMicrosecond)
				}
				return
			}
			for i := 0; i < opsEach; i++ {
				rt.FetchAddErr(th, a.At(0), 1) // fault-free world: cannot fail
			}
			for {
				if _, err := rt.FetchAddErr(th, done, 1); err == nil {
					break
				}
				th.Sleep(simMillisecond)
			}
		},
	}
}

// pingReplica is the ping pattern: blocking get then put loops per size
// between two adjacent nodes, async thread.
func pingReplica(sizes []int, iters int) replica {
	return replica{
		cfg: ArmciConfig{Procs: 2, ProcsPerNode: 1, AsyncThread: true},
		body: func(th *Thread, rt *Runtime, allocated func()) {
			maxSize := sizes[len(sizes)-1]
			aGet := rt.Malloc(th, maxSize)
			aPut := rt.Malloc(th, maxSize)
			allocated()
			if rt.Rank != 0 {
				return
			}
			local := rt.LocalAlloc(th, maxSize)
			rt.Get(th, aGet.At(1), local, 16)
			rt.Put(th, local, aPut.At(1), 16)
			rt.Fence(th, 1)
			for _, m := range sizes {
				for i := 0; i < iters; i++ {
					rt.GetErr(th, aGet.At(1), local, m) // fault-free world: cannot fail
				}
				for i := 0; i < iters; i++ {
					rt.PutErr(th, local, aPut.At(1), m)
				}
			}
		},
	}
}

// haloReplica is the halo pattern: a 2-D Jacobi stencil whose row halos
// are contiguous RDMA puts and whose column halos are typed strided
// puts, including the host-side sweep over the interior.
func haloReplica(tilesX, tilesY, tileN, iters, perNode int) replica {
	ld := tileN + 2
	idx := func(r, c int) int { return r*ld + c }
	return replica{
		cfg: ArmciConfig{Procs: tilesX * tilesY, ProcsPerNode: perNode, AsyncThread: true},
		body: func(th *Thread, rt *Runtime, allocated func()) {
			tx, ty := rt.Rank%tilesX, rt.Rank/tilesX
			grid := rt.Malloc(th, ld*ld*float64Size)
			allocated()
			next := make([]float64, ld*ld)
			cur := make([]float64, ld*ld)
			if tx == 0 {
				for r := 0; r < ld; r++ {
					cur[idx(r, 0)] = 1.0
				}
			}
			rt.Space().WriteFloat64s(grid.At(rt.Rank).Addr, cur)
			rt.Barrier(th)

			neighbor := func(dx, dy int) int {
				nx, ny := tx+dx, ty+dy
				if nx < 0 || nx >= tilesX || ny < 0 || ny >= tilesY {
					return -1
				}
				return ny*tilesX + nx
			}
			at := func(rank, i int) GlobalPtr { return grid.At(rank).Add(i * float64Size) }
			scratch := rt.LocalAlloc(th, ld*float64Size)
			col := make([]float64, tileN)
			colPut := func(n, from, to int) {
				for r := 0; r < tileN; r++ {
					col[r] = cur[idx(r+1, from)]
				}
				rt.Space().WriteFloat64s(scratch, col)
				rt.PutS(th, scratch, []int{float64Size},
					at(n, idx(1, to)), []int{ld * float64Size},
					[]int{float64Size, tileN})
			}
			for it := 0; it < iters; it++ {
				if n := neighbor(0, -1); n >= 0 {
					rt.Space().WriteFloat64s(scratch, cur[idx(1, 1):idx(1, tileN+1)])
					rt.Put(th, scratch, at(n, idx(tileN+1, 1)), tileN*float64Size)
				}
				if n := neighbor(0, 1); n >= 0 {
					rt.Space().WriteFloat64s(scratch, cur[idx(tileN, 1):idx(tileN, tileN+1)])
					rt.Put(th, scratch, at(n, idx(0, 1)), tileN*float64Size)
				}
				if n := neighbor(-1, 0); n >= 0 {
					colPut(n, 1, tileN+1)
				}
				if n := neighbor(1, 0); n >= 0 {
					colPut(n, tileN, 0)
				}
				rt.AllFence(th)
				rt.Barrier(th)

				rt.Space().ReadFloat64s(grid.At(rt.Rank).Addr, cur)
				var delta float64
				for r := 1; r <= tileN; r++ {
					for c := 1; c <= tileN; c++ {
						v := 0.25 * (cur[idx(r-1, c)] + cur[idx(r+1, c)] + cur[idx(r, c-1)] + cur[idx(r, c+1)])
						next[idx(r, c)] = v
						delta += math.Abs(v - cur[idx(r, c)])
					}
				}
				for r := 1; r <= tileN; r++ {
					copy(cur[idx(r, 1):idx(r, tileN+1)], next[idx(r, 1):idx(r, tileN+1)])
				}
				rt.Space().WriteFloat64s(grid.At(rt.Rank).Addr, cur)
				th.Sleep(int64(tileN * tileN))
				rt.AllReduceSum(th, delta)
				rt.Barrier(th)
			}
		},
	}
}
