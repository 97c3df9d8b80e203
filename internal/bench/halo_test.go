package bench

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/armci"
	"repro/internal/mem"
	"repro/internal/sim"
)

// serialJacobi is the halo's oracle: the same sweep on the assembled
// global grid, host-side. A cell's update depends on its four neighbours'
// previous values alone, not on how the grid is split into tiles; each
// tile's delta is summed in row-major order and the tiles' deltas in rank
// order from 0.0, the way AllReduceSum adds them. It returns the interior
// of every tile after the last iteration, row-major per tile in rank
// order, and each iteration's residual.
func serialJacobi(sp HaloSpec) (tiles [][]float64, residuals []float64) {
	n := sp.TileN
	w, h := sp.TilesX*n+2, sp.TilesY*n+2
	cur, next := make([]float64, w*h), make([]float64, w*h)
	for r := 0; r < h; r++ {
		cur[r*w] = 1.0 // the hot global left edge
		next[r*w] = 1.0
	}
	procs := sp.TilesX * sp.TilesY
	for it := 0; it < sp.Iters; it++ {
		total := 0.0
		for rank := 0; rank < procs; rank++ {
			r0, c0 := rank/sp.TilesX*n, rank%sp.TilesX*n
			var delta float64
			for r := r0 + 1; r <= r0+n; r++ {
				for c := c0 + 1; c <= c0+n; c++ {
					i := r*w + c
					v := float64(0.25 * (cur[i-w] + cur[i+w] + cur[i-1] + cur[i+1]))
					next[i] = v
					delta += math.Abs(v - cur[i])
				}
			}
			total += delta
		}
		residuals = append(residuals, total)
		cur, next = next, cur
	}
	for rank := 0; rank < procs; rank++ {
		r0, c0 := rank/sp.TilesX*n, rank%sp.TilesX*n
		tile := make([]float64, 0, n*n)
		for r := r0 + 1; r <= r0+n; r++ {
			tile = append(tile, cur[r*w+c0+1:r*w+c0+1+n]...)
		}
		tiles = append(tiles, tile)
	}
	return tiles, residuals
}

// TestHaloMatchesSerialJacobi holds the halo's rank body to the serial
// oracle bit for bit: every tile's interior after the run and every
// iteration's residual. A rank reads only its ghost strips from the shared
// tile and writes its interior back once at the end, so a dropped strip, a
// missing buffer swap, a missing final write or a reordered stencil sum
// each fails here. Forty iterations carry the values past float64's
// mantissa, where the order of a sum starts to change its bits.
func TestHaloMatchesSerialJacobi(t *testing.T) {
	for _, shape := range []struct{ x, y, n int }{{2, 1, 8}, {3, 5, 17}, {8, 1, 8}} {
		sp := HaloSpec{TilesX: shape.x, TilesY: shape.y, TileN: shape.n, Iters: 40, PerNode: 1}
		wantTiles, wantRes := serialJacobi(sp)
		for _, async := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("%dx%d/N%d/%s/workers%d", shape.x, shape.y, shape.n, ModeName(async), workers)
				t.Run(name, func(t *testing.T) {
					h := &haloRun{spec: sp, residuals: make([]float64, sp.Iters)}
					// armci.Run without its Shelve: the tiles are read from
					// the ranks' memory, which is valid until then.
					k := sim.NewKernel()
					w, err := armci.NewWorld(k, armci.Config{Procs: shape.x * shape.y, ProcsPerNode: sp.PerNode,
						AsyncThread: async, Shards: workers})
					if err != nil {
						t.Fatal(err)
					}
					w.Start(h.rank)
					if err := k.Run(); err != nil {
						t.Fatal(err)
					}
					defer w.M.Shelve()
					for it, want := range wantRes {
						if got := h.residuals[it]; math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("iteration %d: residual %v, serial Jacobi %v", it, got, want)
						}
					}
					n, ld := sp.TileN, sp.TileN+2
					row := make([]float64, n)
					for rank, want := range wantTiles {
						home := h.tile.At(rank).Addr
						for r := 0; r < n; r++ {
							w.Runtimes[rank].Space().ReadFloat64s(home+mem.Addr(((r+1)*ld+1)*mem.Float64Size), row)
							for c, got := range row {
								if math.Float64bits(got) != math.Float64bits(want[r*n+c]) {
									t.Fatalf("rank %d cell (%d,%d): tile holds %v, serial Jacobi %v",
										rank, r+1, c+1, got, want[r*n+c])
								}
							}
						}
					}
				})
			}
		}
	}
}
