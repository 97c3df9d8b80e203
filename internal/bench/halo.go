package bench

import (
	"context"
	"fmt"
	"math"

	"repro/internal/armci"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// HaloSpec parameterizes the halo pattern: a 2-D Jacobi stencil where
// each rank owns a tile and pushes boundary rows/columns into its
// neighbors' ghost regions with one-sided puts — contiguous rows ride
// the RDMA fast path, strided columns the typed protocol (§III.C). Its
// canned spec is examples/halo.json.
type HaloSpec struct {
	TilesX, TilesY int // process grid; procs = TilesX*TilesY
	TileN          int // interior cells per tile side
	Iters          int
	PerNode        int
	Modes          []bool
}

// haloResult is one mode's run, assembled host-side after the world
// joins.
type haloResult struct {
	residual     float64
	rdmaPuts     int64
	typedStrided int64
	timeUS       float64
}

// HaloGrid runs one simulation per engine mode. The closure is
// lane-clean: the per-iteration residual is written by rank 0's thread
// only (every rank holds the same AllReduceSum total), and the
// protocol counters are read from the world's aggregated stats after
// the run.
func HaloGrid(ctx context.Context, eng *sweep.Engine, sp HaloSpec) *Grid {
	g := &Grid{Title: fmt.Sprintf("halo: %dx%d tiles of %d^2, Jacobi stencil",
		sp.TilesX, sp.TilesY, sp.TileN),
		Header: []string{"mode", "iters", "residual", "rdma_puts", "typed_strided", "time_us"}}
	procs := sp.TilesX * sp.TilesY
	ld := sp.TileN + 2 // ghost border included, row-major
	idx := func(r, c int) int { return r*ld + c }

	res := sweep.MapCtx(eng, ctx, len(sp.Modes), func(c *sweep.Ctx, mi int) haloResult {
		cfg := c.Cfg(armci.Config{Procs: procs, ProcsPerNode: sp.PerNode,
			AsyncThread: sp.Modes[mi]})
		residuals := make([]float64, sp.Iters) // written by rank 0 only
		w := armci.MustRun(cfg, func(th *sim.Thread, rt *armci.Runtime) {
			tx, ty := rt.Rank%sp.TilesX, rt.Rank/sp.TilesX

			grid := rt.Malloc(th, ld*ld*mem.Float64Size)
			next := make([]float64, ld*ld)
			cur := make([]float64, ld*ld)

			// Dirichlet boundary: the global left edge is hot (1.0).
			if tx == 0 {
				for r := 0; r < ld; r++ {
					cur[idx(r, 0)] = 1.0
				}
			}
			rt.Space().WriteFloat64s(grid.At(rt.Rank).Addr, cur)
			rt.Barrier(th)

			neighbor := func(dx, dy int) int {
				nx, ny := tx+dx, ty+dy
				if nx < 0 || nx >= sp.TilesX || ny < 0 || ny >= sp.TilesY {
					return -1
				}
				return ny*sp.TilesX + nx
			}
			gp := func(rank, i int) armci.GlobalPtr {
				return grid.At(rank).Add(i * mem.Float64Size)
			}

			scratch := rt.LocalAlloc(th, ld*mem.Float64Size)
			col := make([]float64, sp.TileN)
			for it := 0; it < sp.Iters; it++ {
				// Push boundary data into neighbor ghost regions.
				if n := neighbor(0, -1); n >= 0 { // my top row -> their bottom ghost
					rt.Space().WriteFloat64s(scratch, cur[idx(1, 1):idx(1, sp.TileN+1)])
					rt.Put(th, scratch, gp(n, idx(sp.TileN+1, 1)), sp.TileN*mem.Float64Size)
				}
				if n := neighbor(0, 1); n >= 0 { // bottom row -> their top ghost
					rt.Space().WriteFloat64s(scratch, cur[idx(sp.TileN, 1):idx(sp.TileN, sp.TileN+1)])
					rt.Put(th, scratch, gp(n, idx(0, 1)), sp.TileN*mem.Float64Size)
				}
				if n := neighbor(-1, 0); n >= 0 { // left column -> their right ghost
					for r := 0; r < sp.TileN; r++ {
						col[r] = cur[idx(r+1, 1)]
					}
					rt.Space().WriteFloat64s(scratch, col)
					rt.PutS(th, scratch, []int{mem.Float64Size},
						gp(n, idx(1, sp.TileN+1)), []int{ld * mem.Float64Size},
						[]int{mem.Float64Size, sp.TileN})
				}
				if n := neighbor(1, 0); n >= 0 { // right column -> their left ghost
					for r := 0; r < sp.TileN; r++ {
						col[r] = cur[idx(r+1, sp.TileN)]
					}
					rt.Space().WriteFloat64s(scratch, col)
					rt.PutS(th, scratch, []int{mem.Float64Size},
						gp(n, idx(1, 0)), []int{ld * mem.Float64Size},
						[]int{mem.Float64Size, sp.TileN})
				}
				rt.AllFence(th)
				rt.Barrier(th)

				// Jacobi sweep over the interior, ghosts from the shared tile.
				rt.Space().ReadFloat64s(grid.At(rt.Rank).Addr, cur)
				// Row slices, no index closure: this loop is host arithmetic the
				// benchmark's rdma_stream pays per cell, and it must not drown
				// the data path being measured. The sum's association and the
				// row-major delta order fix the residual's bits.
				var delta float64
				for r := 1; r <= sp.TileN; r++ {
					up, mid, down := cur[(r-1)*ld:r*ld], cur[r*ld:(r+1)*ld], cur[(r+1)*ld:(r+2)*ld]
					out := next[r*ld : (r+1)*ld]
					for c := 1; c <= sp.TileN; c++ {
						v := 0.25 * (up[c] + down[c] + mid[c-1] + mid[c+1])
						out[c] = v
						delta += math.Abs(v - mid[c])
					}
				}
				for r := 1; r <= sp.TileN; r++ {
					copy(cur[idx(r, 1):idx(r, sp.TileN+1)], next[idx(r, 1):idx(r, sp.TileN+1)])
				}
				rt.Space().WriteFloat64s(grid.At(rt.Rank).Addr, cur)
				th.Sleep(sim.Time(sp.TileN * sp.TileN)) // ~1 ns per cell of compute
				total := rt.AllReduceSum(th, delta)
				if rt.Rank == 0 {
					residuals[it] = total
				}
				rt.Barrier(th)
			}
		})
		agg := w.AggregateStats()
		return haloResult{
			residual:     residuals[sp.Iters-1],
			rdmaPuts:     agg.Get("put.rdma"),
			typedStrided: agg.Get("strided.typed"),
			timeUS:       sim.ToMicros(w.K.Now()),
		}
	})
	for mi, async := range sp.Modes {
		r := res[mi]
		g.Add(ModeName(async), fmt.Sprint(sp.Iters), fmt.Sprintf("%.6f", r.residual),
			fmt.Sprint(r.rdmaPuts), fmt.Sprint(r.typedStrided),
			fmt.Sprintf("%.1f", r.timeUS))
	}
	g.Note("row halos are contiguous RDMA puts; column halos take the typed strided protocol")
	return g
}
