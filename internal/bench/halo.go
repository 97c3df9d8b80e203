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
// only, and the protocol counters are read from the world's aggregated
// stats after the run. Each rank's shared tile holds what the network
// writes, its ghost strips; the interior is the owner's private pair of
// buffers until the last iteration writes it back once.
func HaloGrid(ctx context.Context, eng *sweep.Engine, sp HaloSpec) *Grid {
	g := &Grid{Title: fmt.Sprintf("halo: %dx%d tiles of %d^2, Jacobi stencil",
		sp.TilesX, sp.TilesY, sp.TileN),
		Header: []string{"mode", "iters", "residual", "rdma_puts", "typed_strided", "time_us"}}
	res := sweep.MapCtx(eng, ctx, len(sp.Modes), func(c *sweep.Ctx, mi int) haloResult {
		h := &haloRun{spec: sp, residuals: make([]float64, sp.Iters)}
		w := armci.MustRun(c.Cfg(armci.Config{Procs: sp.TilesX * sp.TilesY,
			ProcsPerNode: sp.PerNode, AsyncThread: sp.Modes[mi]}), h.rank)
		agg := w.AggregateStats()
		return haloResult{
			residual:     h.residuals[sp.Iters-1],
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

// haloRun is one simulation of the halo: rank is every rank's body, and
// rank 0 records what the host reads after the run — each iteration's
// residual (every rank holds the same AllReduceSum total) and the tile
// allocation.
type haloRun struct {
	spec      HaloSpec
	residuals []float64
	tile      *armci.Allocation
}

func (h *haloRun) rank(th *sim.Thread, rt *armci.Runtime) {
	sp, n := h.spec, h.spec.TileN
	ld := n + 2 // ghost border included, row-major
	idx := func(r, c int) int { return r*ld + c }
	tx, ty := rt.Rank%sp.TilesX, rt.Rank/sp.TilesX
	space := rt.Space()

	grid := rt.Malloc(th, ld*ld*mem.Float64Size)
	gp := func(rank, i int) armci.GlobalPtr {
		return grid.At(rank).Add(i * mem.Float64Size)
	}
	at := func(i int) mem.Addr { return gp(rt.Rank, i).Addr } // cell i of my tile
	if rt.Rank == 0 {
		h.tile = grid
	}
	next := make([]float64, ld*ld)
	cur := make([]float64, ld*ld)

	// Dirichlet boundary: the global left edge is hot (1.0). It and the
	// other global-edge ghosts live in the tile from here on; nobody
	// writes them again.
	if tx == 0 {
		for r := 0; r < ld; r++ {
			cur[idx(r, 0)] = 1.0
		}
	}
	space.WriteFloat64s(at(0), cur)
	rt.Barrier(th)

	neighbor := func(dx, dy int) int {
		nx, ny := tx+dx, ty+dy
		if nx < 0 || nx >= sp.TilesX || ny < 0 || ny >= sp.TilesY {
			return -1
		}
		return ny*sp.TilesX + nx
	}

	scratch := rt.LocalAlloc(th, ld*mem.Float64Size)
	col := make([]float64, n)
	for it := 0; it < sp.Iters; it++ {
		// Push boundary data into neighbor ghost regions.
		if nb := neighbor(0, -1); nb >= 0 { // my top row -> their bottom ghost
			space.WriteFloat64s(scratch, cur[idx(1, 1):idx(1, n+1)])
			rt.Put(th, scratch, gp(nb, idx(n+1, 1)), n*mem.Float64Size)
		}
		if nb := neighbor(0, 1); nb >= 0 { // bottom row -> their top ghost
			space.WriteFloat64s(scratch, cur[idx(n, 1):idx(n, n+1)])
			rt.Put(th, scratch, gp(nb, idx(0, 1)), n*mem.Float64Size)
		}
		if nb := neighbor(-1, 0); nb >= 0 { // left column -> their right ghost
			for r := 0; r < n; r++ {
				col[r] = cur[idx(r+1, 1)]
			}
			space.WriteFloat64s(scratch, col)
			rt.PutS(th, scratch, []int{mem.Float64Size},
				gp(nb, idx(1, n+1)), []int{ld * mem.Float64Size},
				[]int{mem.Float64Size, n})
		}
		if nb := neighbor(1, 0); nb >= 0 { // right column -> their left ghost
			for r := 0; r < n; r++ {
				col[r] = cur[idx(r+1, n)]
			}
			space.WriteFloat64s(scratch, col)
			rt.PutS(th, scratch, []int{mem.Float64Size},
				gp(nb, idx(1, 0)), []int{ld * mem.Float64Size},
				[]int{mem.Float64Size, n})
		}
		rt.AllFence(th)
		rt.Barrier(th)

		// The four ghost strips from the shared tile; the corners are
		// never read. The interior is the owner's alone.
		space.ReadFloat64s(at(idx(0, 1)), cur[idx(0, 1):idx(0, n+1)])
		space.ReadFloat64s(at(idx(n+1, 1)), cur[idx(n+1, 1):idx(n+1, n+1)])
		for r := 1; r <= n; r++ {
			cur[idx(r, 0)] = space.GetFloat64(at(idx(r, 0)))
			cur[idx(r, n+1)] = space.GetFloat64(at(idx(r, n+1)))
		}

		// Jacobi sweep over the interior into next. Equal-length row
		// slices leave the inner loop without bounds checks. The sum's
		// association, the rounded product (no port may fuse it into the
		// subtraction) and the row-major delta order fix the residual's
		// bits.
		var delta float64
		for r := 1; r <= n; r++ {
			mid := cur[idx(r, 1):idx(r, n+1)]
			up := cur[idx(r-1, 1):idx(r-1, n+1)][:len(mid)]
			down := cur[idx(r+1, 1):idx(r+1, n+1)][:len(mid)]
			left := cur[idx(r, 0):idx(r, n)][:len(mid)]
			right := cur[idx(r, 2):idx(r, n+2)][:len(mid)]
			out := next[idx(r, 1):idx(r, n+1)][:len(mid)]
			for c, m := range mid {
				v := float64(0.25 * (up[c] + down[c] + left[c] + right[c]))
				out[c] = v
				delta += math.Abs(v - m)
			}
		}
		cur, next = next, cur
		th.Sleep(sim.Time(n * n)) // ~1 ns per cell of compute
		total := rt.AllReduceSum(th, delta)
		if rt.Rank == 0 {
			h.residuals[it] = total
		}
		rt.Barrier(th)
	}
	// The interior reaches the tile once, so the final tile is what a
	// write-back every iteration would have left.
	for r := 1; r <= n; r++ {
		space.WriteFloat64s(at(idx(r, 1)), cur[idx(r, 1):idx(r, n+1)])
	}
}
