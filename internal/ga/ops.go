package ga

import (
	"fmt"

	"repro/internal/sim"
)

// Collective whole-array operations in the style of the Global Arrays
// library (GA_Copy, GA_Scale, GA_Ddot, GA_Transpose, GA_Dgemm). Each rank
// operates on its owned block where possible; Transpose and Dgemm move
// patches through one-sided communication. All of them are collective:
// every rank must call them together, and they synchronize on exit.

// sameShape panics unless the arrays are distributable copies of each
// other (same dims on the same world).
func sameShape(op string, a, b *Array) {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.rt != b.rt {
		panic(fmt.Sprintf("ga: %s: shape mismatch %dx%d vs %dx%d",
			op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Copy copies src into dst (same distribution: pure local block copies).
func Copy(th *sim.Thread, src, dst *Array) {
	sameShape("Copy", src, dst)
	if vals, ok := src.OwnData(); ok {
		dst.SetOwnData(vals)
	}
	dst.Sync(th)
}

// Scale multiplies every element by alpha.
func (a *Array) Scale(th *sim.Thread, alpha float64) {
	if vals, ok := a.OwnData(); ok {
		for i := range vals {
			vals[i] *= alpha
		}
		a.SetOwnData(vals)
	}
	a.Sync(th)
}

// Dot returns sum(a .* b), reduced across ranks; both arrays must share a
// shape (and therefore a distribution).
func Dot(th *sim.Thread, a, b *Array) float64 {
	sameShape("Dot", a, b)
	local := 0.0
	if av, ok := a.OwnData(); ok {
		bv, _ := b.OwnData()
		for i := range av {
			local += av[i] * bv[i]
		}
	}
	return a.rt.AllReduceSum(th, local)
}

// Transpose sets dst = src^T. Each rank fetches the transposed patch
// corresponding to its own block with a strided one-sided get, so the
// traffic pattern is the classic all-to-all corner turn.
func Transpose(th *sim.Thread, src, dst *Array) {
	if src.Rows != dst.Cols || src.Cols != dst.Rows || src.rt != dst.rt {
		panic("ga: Transpose: dst must be src with dims swapped")
	}
	src.Sync(th)
	r0, c0, r1, c1, ok := dst.OwnBlock()
	if ok {
		// dst[r][c] = src[c][r]: fetch src's [c0:c1) x [r0:r1) patch and
		// transpose locally.
		patch := src.Get(th, c0, r0, c1, r1)
		rows, cols := r1-r0, c1-c0
		out := make([]float64, rows*cols)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				out[r*cols+c] = patch[c*rows+r]
			}
		}
		dst.SetOwnData(out)
	}
	dst.Sync(th)
}

// Dgemm computes C = alpha*A*B + beta*C with the owner-computes strategy:
// each rank produces its own C block, streaming the needed A-row and
// B-column panels with one-sided gets in tiles of kTile columns. The
// compute time is charged at flopRate flops per virtual second.
func Dgemm(th *sim.Thread, alpha float64, A, B *Array, beta float64, C *Array,
	kTile int, flopRate float64) {

	if A.Cols != B.Rows || A.Rows != C.Rows || B.Cols != C.Cols {
		panic(fmt.Sprintf("ga: Dgemm: dims %dx%d * %dx%d -> %dx%d",
			A.Rows, A.Cols, B.Rows, B.Cols, C.Rows, C.Cols))
	}
	if kTile <= 0 {
		kTile = 64
	}
	A.Sync(th)
	r0, c0, r1, c1, ok := C.OwnBlock()
	if ok {
		rows, cols := r1-r0, c1-c0
		acc := make([]float64, rows*cols)
		var aCopy []float64 // A's panel, when B's Get would overwrite it (A == B)
		for k0 := 0; k0 < A.Cols; k0 += kTile {
			k1 := min(k0+kTile, A.Cols)
			kw := k1 - k0
			ap := A.Get(th, r0, k0, r1, k1) // rows x kw
			if A == B {
				aCopy = append(aCopy[:0], ap...)
				ap = aCopy
			}
			bp := B.Get(th, k0, c0, k1, c1) // kw x cols
			// Charge the block product's arithmetic to virtual time.
			flops := 2 * float64(rows) * float64(cols) * float64(kw)
			if flopRate > 0 {
				th.Sleep(sim.Time(flops / flopRate * 1e9))
			}
			for i := 0; i < rows; i++ {
				for kk := 0; kk < kw; kk++ {
					av := ap[i*kw+kk]
					if av == 0 {
						continue
					}
					brow := bp[kk*cols:]
					crow := acc[i*cols:]
					for j := 0; j < cols; j++ {
						crow[j] += av * brow[j]
					}
				}
			}
		}
		cur, _ := C.OwnData()
		for i := range cur {
			cur[i] = alpha*acc[i] + beta*cur[i]
		}
		C.SetOwnData(cur)
	}
	C.Sync(th)
}
