package ga

import (
	"testing"

	"repro/internal/armci"
	"repro/internal/sim"
)

// fillGlobal writes f(r,c) into the whole array from each owner's block.
func fillGlobal(a *Array, f func(r, c int) float64) {
	r0, c0, r1, c1, ok := a.OwnBlock()
	if !ok {
		return
	}
	vals := make([]float64, (r1-r0)*(c1-c0))
	for r := r0; r < r1; r++ {
		for c := c0; c < c1; c++ {
			vals[(r-r0)*(c1-c0)+(c-c0)] = f(r, c)
		}
	}
	a.SetOwnData(vals)
}

func TestCopyAndScale(t *testing.T) {
	_, err := armci.Run(atCfg(4), func(th *sim.Thread, rt *armci.Runtime) {
		a := Create(th, rt, "A", 12, 10)
		b := Create(th, rt, "B", 12, 10)
		fillGlobal(a, elem)
		a.Sync(th)
		Copy(th, a, b)
		b.Scale(th, 2)
		if rt.Rank == 0 {
			got := b.Get(th, 0, 0, 12, 10)
			for r := 0; r < 12; r++ {
				for c := 0; c < 10; c++ {
					if got[r*10+c] != 2*elem(r, c) {
						t.Fatalf("(%d,%d) = %v", r, c, got[r*10+c])
					}
				}
			}
		}
		b.Sync(th)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDot(t *testing.T) {
	const rows, cols = 9, 7
	var got float64
	_, err := armci.Run(atCfg(4), func(th *sim.Thread, rt *armci.Runtime) {
		a := Create(th, rt, "A", rows, cols)
		b := Create(th, rt, "B", rows, cols)
		fillGlobal(a, func(r, c int) float64 { return float64(r + 1) })
		fillGlobal(b, func(r, c int) float64 { return float64(c + 2) })
		a.Sync(th)
		got = Dot(th, a, b)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			want += float64(r+1) * float64(c+2)
		}
	}
	if got != want {
		t.Fatalf("dot = %v, want %v", got, want)
	}
}

func TestTranspose(t *testing.T) {
	const rows, cols = 14, 9
	_, err := armci.Run(atCfg(4), func(th *sim.Thread, rt *armci.Runtime) {
		a := Create(th, rt, "A", rows, cols)
		at := Create(th, rt, "At", cols, rows)
		fillGlobal(a, elem)
		a.Sync(th)
		Transpose(th, a, at)
		if rt.Rank == 1 {
			got := at.Get(th, 0, 0, cols, rows)
			for r := 0; r < cols; r++ {
				for c := 0; c < rows; c++ {
					if got[r*rows+c] != elem(c, r) {
						t.Fatalf("(%d,%d) = %v want %v", r, c, got[r*rows+c], elem(c, r))
					}
				}
			}
		}
		at.Sync(th)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTransposeShapePanics(t *testing.T) {
	_, err := armci.Run(atCfg(2), func(th *sim.Thread, rt *armci.Runtime) {
		a := Create(th, rt, "A", 4, 6)
		b := Create(th, rt, "B", 4, 6) // wrong: must be 6x4
		if rt.Rank == 0 {
			func() {
				defer func() {
					if recover() == nil {
						t.Error("expected panic")
					}
				}()
				Transpose(th, a, b)
			}()
		}
		rt.Barrier(th)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDgemmMatchesSerial(t *testing.T) {
	const n, m, k = 16, 12, 10
	aF := func(r, c int) float64 { return float64((r*3 + c) % 5) }
	bF := func(r, c int) float64 { return float64((r + 2*c) % 7) }
	_, err := armci.Run(atCfg(4), func(th *sim.Thread, rt *armci.Runtime) {
		A := Create(th, rt, "A", n, k)
		B := Create(th, rt, "B", k, m)
		C := Create(th, rt, "C", n, m)
		fillGlobal(A, aF)
		fillGlobal(B, bF)
		C.Fill(th, 1) // exercise beta
		A.Sync(th)
		Dgemm(th, 2.0, A, B, 3.0, C, 4, 1e9)
		if rt.Rank == 0 {
			got := C.Get(th, 0, 0, n, m)
			for r := 0; r < n; r++ {
				for c := 0; c < m; c++ {
					s := 0.0
					for kk := 0; kk < k; kk++ {
						s += aF(r, kk) * bF(kk, c)
					}
					want := 2*s + 3*1
					if got[r*m+c] != want {
						t.Fatalf("C(%d,%d) = %v want %v", r, c, got[r*m+c], want)
					}
				}
			}
		}
		C.Sync(th)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDgemmSquaresOneArray: C = A·A reads both panels from one array,
// whose Get returns the same buffer each call, so the product must not be
// A's panel times itself.
func TestDgemmSquaresOneArray(t *testing.T) {
	const n = 12
	aF := func(r, c int) float64 { return float64((r*3 + c) % 5) }
	_, err := armci.Run(atCfg(4), func(th *sim.Thread, rt *armci.Runtime) {
		A := Create(th, rt, "A", n, n)
		C := Create(th, rt, "C", n, n)
		fillGlobal(A, aF)
		A.Sync(th)
		Dgemm(th, 1, A, A, 0, C, 4, 1e9)
		if rt.Rank == 0 {
			got := C.Get(th, 0, 0, n, n)
			for r := 0; r < n; r++ {
				for c := 0; c < n; c++ {
					want := 0.0
					for kk := 0; kk < n; kk++ {
						want += aF(r, kk) * aF(kk, c)
					}
					if got[r*n+c] != want {
						t.Fatalf("C(%d,%d) = %v want %v", r, c, got[r*n+c], want)
					}
				}
			}
		}
		C.Sync(th)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDgemmChargesComputeTime(t *testing.T) {
	var fast, slow sim.Time
	run := func(rate float64) sim.Time {
		var elapsed sim.Time
		_, err := armci.Run(atCfg(2), func(th *sim.Thread, rt *armci.Runtime) {
			A := Create(th, rt, "A", 24, 24)
			B := Create(th, rt, "B", 24, 24)
			C := Create(th, rt, "C", 24, 24)
			A.Sync(th)
			t0 := th.Now()
			Dgemm(th, 1, A, B, 0, C, 8, rate)
			if th.Now()-t0 > elapsed {
				elapsed = th.Now() - t0
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	fast = run(1e12)
	slow = run(1e8)
	if slow <= fast {
		t.Fatalf("flop rate has no effect: slow=%d fast=%d", slow, fast)
	}
}
