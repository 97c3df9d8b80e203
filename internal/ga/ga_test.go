package ga

import (
	"testing"
	"testing/quick"

	"repro/internal/armci"
	"repro/internal/sim"
)

func atCfg(procs int) armci.Config {
	return armci.Config{Procs: procs, ProcsPerNode: 4, AsyncThread: true}
}

func TestGridShape(t *testing.T) {
	cases := map[int][2]int{
		1: {1, 1}, 2: {1, 2}, 4: {2, 2}, 6: {2, 3}, 12: {3, 4},
		16: {4, 4}, 7: {1, 7}, 36: {6, 6},
	}
	for p, want := range cases {
		pr, pc := gridShape(p)
		if pr != want[0] || pc != want[1] {
			t.Errorf("gridShape(%d) = %d,%d want %d,%d", p, pr, pc, want[0], want[1])
		}
	}
}

// element value encoding position, so any misplaced byte is visible.
func elem(r, c int) float64 { return float64(r*10000 + c) }

func TestPutGetFullMatrix(t *testing.T) {
	const rows, cols = 23, 17 // deliberately not divisible by the grid
	_, err := armci.Run(atCfg(4), func(th *sim.Thread, rt *armci.Runtime) {
		a := Create(th, rt, "A", rows, cols)
		if rt.Rank == 0 {
			vals := make([]float64, rows*cols)
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					vals[r*cols+c] = elem(r, c)
				}
			}
			a.Put(th, 0, 0, rows, cols, vals)
		}
		a.Sync(th)
		// Every rank reads a different window and checks it.
		r0 := rt.Rank % 3
		c0 := rt.Rank % 2
		got := a.Get(th, r0, c0, rows, cols)
		width := cols - c0
		for r := 0; r < rows-r0; r++ {
			for c := 0; c < width; c++ {
				if got[r*width+c] != elem(r+r0, c+c0) {
					t.Fatalf("rank %d: (%d,%d) = %v want %v",
						rt.Rank, r, c, got[r*width+c], elem(r+r0, c+c0))
				}
			}
		}
		a.Sync(th)
		a.Destroy(th)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPatchCrossesBlockBoundaries(t *testing.T) {
	const rows, cols = 32, 32
	_, err := armci.Run(atCfg(4), func(th *sim.Thread, rt *armci.Runtime) {
		a := Create(th, rt, "A", rows, cols) // 2x2 grid, 16x16 blocks
		if rt.Rank == 1 {
			vals := make([]float64, rows*cols)
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					vals[r*cols+c] = elem(r, c)
				}
			}
			a.Put(th, 0, 0, rows, cols, vals)
		}
		a.Sync(th)
		if rt.Rank == 2 {
			// A window straddling all four blocks.
			got := a.Get(th, 10, 12, 22, 20)
			for r := 0; r < 12; r++ {
				for c := 0; c < 8; c++ {
					if got[r*8+c] != elem(r+10, c+12) {
						t.Fatalf("(%d,%d) = %v", r, c, got[r*8+c])
					}
				}
			}
		}
		a.Sync(th)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAccumulateFromAllRanks(t *testing.T) {
	const procs, rows, cols = 4, 8, 8
	_, err := armci.Run(atCfg(procs), func(th *sim.Thread, rt *armci.Runtime) {
		a := Create(th, rt, "F", rows, cols)
		a.Fill(th, 0)
		a.Sync(th)
		ones := make([]float64, rows*cols)
		for i := range ones {
			ones[i] = 1
		}
		a.Acc(th, 0, 0, rows, cols, ones, float64(rt.Rank+1))
		a.Sync(th)
		if rt.Rank == 0 {
			got := a.Get(th, 0, 0, rows, cols)
			want := float64(1 + 2 + 3 + 4)
			for i, v := range got {
				if v != want {
					t.Fatalf("elem %d = %v, want %v", i, v, want)
				}
			}
		}
		a.Sync(th)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCounterIssuesUniqueTickets(t *testing.T) {
	const procs, each = 5, 8
	tickets := make(map[int64]int)
	_, err := armci.Run(atCfg(procs), func(th *sim.Thread, rt *armci.Runtime) {
		c := NewCounter(th, rt)
		local := make([]int64, 0, each)
		for i := 0; i < each; i++ {
			local = append(local, c.Next(th))
		}
		rt.Barrier(th)
		for _, v := range local {
			tickets[v]++ // serialized across ranks by barrier + sim determinism
		}
		rt.Barrier(th)
		c.Reset(th) // collective
		if rt.Rank == 0 {
			if got := c.Next(th); got != 0 {
				t.Errorf("after reset: %d", got)
			}
		}
		rt.Barrier(th)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tickets) != procs*each {
		t.Fatalf("%d distinct tickets, want %d", len(tickets), procs*each)
	}
	for v, n := range tickets {
		if n != 1 {
			t.Fatalf("ticket %d issued %d times", v, n)
		}
	}
}

func TestOwnBlockPartition(t *testing.T) {
	// The owned blocks must tile the matrix exactly.
	const rows, cols = 19, 13
	covered := make([][]int, rows)
	for i := range covered {
		covered[i] = make([]int, cols)
	}
	_, err := armci.Run(atCfg(6), func(th *sim.Thread, rt *armci.Runtime) {
		a := Create(th, rt, "A", rows, cols)
		r0, c0, r1, c1, ok := a.OwnBlock()
		rt.Barrier(th)
		if ok {
			for r := r0; r < r1; r++ {
				for c := c0; c < c1; c++ {
					covered[r][c]++
				}
			}
		}
		rt.Barrier(th)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range covered {
		for c := range covered[r] {
			if covered[r][c] != 1 {
				t.Fatalf("(%d,%d) covered %d times", r, c, covered[r][c])
			}
		}
	}
}

func TestRandomPatchRoundTripProperty(t *testing.T) {
	const rows, cols = 24, 24
	_, err := armci.Run(atCfg(4), func(th *sim.Thread, rt *armci.Runtime) {
		a := Create(th, rt, "A", rows, cols)
		a.Sync(th)
		if rt.Rank == 0 {
			rng := sim.NewRNG(5)
			f := func(_ uint8) bool {
				r0, c0 := rng.Intn(rows-1), rng.Intn(cols-1)
				r1 := r0 + 1 + rng.Intn(rows-r0-1)
				c1 := c0 + 1 + rng.Intn(cols-c0-1)
				vals := make([]float64, (r1-r0)*(c1-c0))
				for i := range vals {
					vals[i] = float64(rng.Intn(1000))
				}
				a.Put(th, r0, c0, r1, c1, vals)
				// No explicit fence: location consistency must make the
				// following get observe the put.
				got := a.Get(th, r0, c0, r1, c1)
				for i := range vals {
					if got[i] != vals[i] {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Error(err)
			}
		}
		a.Sync(th)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvalidPatchPanics(t *testing.T) {
	_, err := armci.Run(atCfg(2), func(th *sim.Thread, rt *armci.Runtime) {
		a := Create(th, rt, "A", 8, 8)
		if rt.Rank == 0 {
			func() {
				defer func() {
					if recover() == nil {
						t.Error("expected panic")
					}
				}()
				a.Get(th, 0, 0, 9, 8)
			}()
		}
		a.Sync(th)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGetAllocBudget pins the heap objects a patch transfer costs the host
// in steady state: a 4-rank array, a patch with a piece at every owner.
// Get, Put, Acc, OwnData and Fill allocate nothing: Get's and OwnData's
// results are the Array's own buffers (the package comment's ownership
// rule), Fill writes in place, the pieces' handles go
// into the Array's own list, which keeps its capacity between calls, and
// every operation's slot, flight and payload is recycled.
func TestGetAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates, and operation slots are retired under it")
	}
	const rows, cols = 16, 16
	_, err := armci.Run(atCfg(4), func(th *sim.Thread, rt *armci.Runtime) {
		a := Create(th, rt, "A", rows, cols)
		if rt.Rank == 0 {
			vals := make([]float64, 6*6)
			for _, tc := range []struct {
				name string
				want float64
				op   func()
			}{
				{"Get", 0, func() { a.Get(th, 5, 5, 11, 11) }},
				{"Put", 0, func() { a.Put(th, 5, 5, 11, 11, vals) }},
				{"Acc", 0, func() { a.Acc(th, 5, 5, 11, 11, vals, 1) }},
				{"OwnData", 0, func() { a.OwnData() }},
				{"Fill", 0, func() { a.Fill(th, 2) }},
			} {
				tc.op() // warm-up: endpoints, region descriptors, scratch, handle list
				got := testing.AllocsPerRun(50, tc.op)
				t.Logf("%s: %v heap objects per call", tc.name, got)
				if got != tc.want {
					t.Errorf("%s: %v heap objects per call, want %v", tc.name, got, tc.want)
				}
			}
		}
		a.Sync(th)
		a.Destroy(th)
	})
	if err != nil {
		t.Fatal(err)
	}
}
