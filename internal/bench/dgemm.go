package bench

import (
	"context"
	"fmt"

	"repro/internal/armci"
	"repro/internal/ga"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// DgemmSpec parameterizes the dgemm pattern: distributed C = A x B over
// Global Arrays (the paper's §III.E motivating workload), with a
// consistency-mode axis — per-region conflict tracking (cs_mr) should
// never fence on the read-only A/B and write-only C, while the naive
// per-target scheme (cs_tgt) fences constantly. Its canned spec is
// examples/dgemm.json; the product is verified exactly against a serial
// reference (values are small integers).
type DgemmSpec struct {
	N, Tile     int // matrix and tile dimension; Tile must divide N
	Procs       []int
	PerNode     int
	Consistency []armci.ConsistencyMode
}

func dgemmAVal(r, c int) float64 { return float64((r*7 + c*3) % 5) }
func dgemmBVal(r, c int) float64 { return float64((r*2 + c*5) % 7) }

// ConsistencyName is the column prefix of one conflict-tracking mode.
func ConsistencyName(m armci.ConsistencyMode) string {
	if m == armci.ConsistencyPerRegion {
		return "cs_mr"
	}
	return "cs_tgt"
}

// dgemmResult is one (procs, consistency) cell.
type dgemmResult struct {
	timeUS          float64
	fences, avoided int64
	bad             int
}

// DgemmGrid runs len(Procs) x len(Consistency) independent simulations
// (always with the async progress thread, as the example does). The
// closure is lane-clean: per-rank elapsed slots, the verification
// mismatch count written by rank 0 only, fence counters summed from the
// world's runtimes after the join.
func DgemmGrid(ctx context.Context, eng *sweep.Engine, sp DgemmSpec) *Grid {
	g := &Grid{Title: fmt.Sprintf("dgemm: C = A x B, %dx%d in %d^2 tiles", sp.N, sp.N, sp.Tile),
		Header: []string{"procs"}}
	for _, cm := range sp.Consistency {
		name := ConsistencyName(cm)
		g.Header = append(g.Header, name+"_time_us", name+"_fences", name+"_avoided")
	}
	g.Header = append(g.Header, "verified")
	nc := len(sp.Consistency)
	cells := sweep.MapCtx(eng, ctx, len(sp.Procs)*nc, func(c *sweep.Ctx, i int) dgemmResult {
		procs, cm := sp.Procs[i/nc], sp.Consistency[i%nc]
		cfg := c.Cfg(armci.Config{Procs: procs, ProcsPerNode: sp.PerNode,
			AsyncThread: true, Consistency: cm})
		elapsed := make([]sim.Time, procs)
		bad := make([]int, 1) // written by rank 0 only
		w := armci.MustRun(cfg, func(th *sim.Thread, rt *armci.Runtime) {
			A := ga.Create(th, rt, "A", sp.N, sp.N)
			B := ga.Create(th, rt, "B", sp.N, sp.N)
			C := ga.Create(th, rt, "C", sp.N, sp.N)
			counter := ga.NewCounter(th, rt)

			fill := func(arr *ga.Array, f func(r, c int) float64) {
				r0, c0, r1, c1, ok := arr.OwnBlock()
				if !ok {
					return
				}
				vals := make([]float64, (r1-r0)*(c1-c0))
				for r := r0; r < r1; r++ {
					for c := c0; c < c1; c++ {
						vals[(r-r0)*(c1-c0)+(c-c0)] = f(r, c)
					}
				}
				arr.Put(th, r0, c0, r1, c1, vals)
			}
			fill(A, dgemmAVal)
			fill(B, dgemmBVal)
			C.Fill(th, 0)
			A.Sync(th)

			start := th.Now()
			tiles := sp.N / sp.Tile
			ntasks := tiles * tiles
			for {
				t := counter.Next(th)
				if t >= int64(ntasks) {
					break
				}
				ti, tj := int(t)/tiles, int(t)%tiles
				r0, c0 := ti*sp.Tile, tj*sp.Tile
				acc := make([]float64, sp.Tile*sp.Tile)
				for k := 0; k < tiles; k++ {
					// Reads of A and B overlap the in-flight accumulate to C
					// from the previous k — the §III.E pattern.
					at := A.Get(th, r0, k*sp.Tile, r0+sp.Tile, (k+1)*sp.Tile)
					bt := B.Get(th, k*sp.Tile, c0, (k+1)*sp.Tile, c0+sp.Tile)
					th.Sleep(sim.Time(sp.Tile * sp.Tile * sp.Tile)) // ~1 flop/ns
					for i := 0; i < sp.Tile; i++ {
						for j := 0; j < sp.Tile; j++ {
							s := 0.0
							for kk := 0; kk < sp.Tile; kk++ {
								s += float64(at[i*sp.Tile+kk] * bt[kk*sp.Tile+j])
							}
							acc[i*sp.Tile+j] += s
						}
					}
				}
				C.Acc(th, r0, c0, r0+sp.Tile, c0+sp.Tile, acc, 1.0)
			}
			C.Sync(th)
			elapsed[rt.Rank] = th.Now() - start

			if rt.Rank == 0 {
				got := C.Get(th, 0, 0, sp.N, sp.N)
				for r := 0; r < sp.N; r++ {
					for c := 0; c < sp.N; c++ {
						want := 0.0
						for k := 0; k < sp.N; k++ {
							want += float64(dgemmAVal(r, k) * dgemmBVal(k, c))
						}
						if got[r*sp.N+c] != want {
							bad[0]++
						}
					}
				}
			}
			C.Sync(th)
		})
		res := dgemmResult{bad: bad[0]}
		var wall sim.Time
		for rank := 0; rank < procs; rank++ {
			if elapsed[rank] > wall {
				wall = elapsed[rank]
			}
		}
		res.timeUS = sim.ToMicros(wall)
		agg := w.AggregateStats()
		res.fences, res.avoided = agg.Get("conflict.fence"), agg.Get("conflict.avoided")
		return res
	})
	for pi, p := range sp.Procs {
		row := []string{fmt.Sprint(p)}
		verified := "yes"
		for ci := 0; ci < nc; ci++ {
			cell := cells[pi*nc+ci]
			row = append(row, fmt.Sprintf("%.1f", cell.timeUS),
				fmt.Sprint(cell.fences), fmt.Sprint(cell.avoided))
			if cell.bad != 0 {
				verified = "NO"
			}
		}
		g.Add(append(row, verified)...)
	}
	g.Note("A/B are read-only and C write-only: cs_mr should avoid every fence cs_tgt takes")
	return g
}
