package mem

import (
	"bytes"
	"math"
	"testing"
)

// float64Edges are the values whose bits a careless conversion would
// change: NaN payloads (quiet, signalling, negative), both zeros, both
// infinities, subnormals, and the extremes of the normal range.
var float64Edges = []float64{
	math.Float64frombits(0x7ff8000000000001), // quiet NaN with a payload
	math.Float64frombits(0x7ff0000000000001), // signalling NaN
	math.Float64frombits(0xfff8dead0000beef), // negative NaN, payload in both halves
	0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), // largest subnormal
	math.MaxFloat64, -math.MaxFloat64, 1.5, -2.25, math.Pi,
}

// finite is float64Edges without its NaNs and infinities: what
// AddFloat64s adds to a NaN. Two NaNs are never added (an infinity times
// -0 is one): x86 keeps the payload of whichever is the first operand, and
// the two loops need not order their operands alike.
var finite = func() (f []float64) {
	for _, v := range float64Edges {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			f = append(f, v)
		}
	}
	return f
}()

// TestFloat64ViewMatchesEncoding: reading, writing and accumulating through
// the []float64 view leaves exactly the bytes the per-element encoding
// does, for every length from 0 to 17 and every edge value, and a range
// that does not start on an 8-byte boundary is never viewed.
func TestFloat64ViewMatchesEncoding(t *testing.T) {
	const maxLen = 17
	s := NewSpace()
	base := s.Alloc((maxLen + 1) * Float64Size)
	if _, ok := float64View(s.Bytes(base, Float64Size)); !ok && littleEndian {
		t.Fatal("an Alloc'd range is not viewed on a little-endian host: the test would compare the loop with itself")
	}
	if _, ok := float64View(s.Bytes(base+1, Float64Size)); ok {
		t.Fatal("a misaligned range is viewed")
	}
	values := func(from []float64, n, rot int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = from[(i+rot)%len(from)]
		}
		return v
	}
	for _, off := range []Addr{0, 1} { // aligned: the view; misaligned: the loop
		a := base + off
		for n := 0; n <= maxLen; n++ {
			size := n * Float64Size
			for rot := 0; rot < len(float64Edges); rot++ {
				src := values(float64Edges, n, rot)

				s.WriteFloat64s(a, src)
				want := make([]byte, size)
				encodeFloat64s(want, src)
				if got := s.Bytes(a, size); !bytes.Equal(got, want) {
					t.Fatalf("off %d, %d values, rot %d: WriteFloat64s wrote % x, the encoding is % x", off, n, rot, got, want)
				}

				got, ref := make([]float64, n), make([]float64, n)
				s.ReadFloat64s(a, got)
				decodeFloat64s(ref, want)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
						t.Fatalf("off %d, %d values, rot %d: ReadFloat64s[%d] = %#x, the decoding %#x", off, n, rot, i,
							math.Float64bits(got[i]), math.Float64bits(ref[i]))
					}
				}

				for _, tc := range []struct{ dst, add []float64 }{
					{src, values(finite, n, rot)},                  // NaNs in the heap
					{values(finite, n, rot), src},                  // NaNs and infinities in the increment
					{values(finite, n, rot), values(finite, n, 3)}, // overflow, cancellation, subnormal sums
				} {
					for _, scale := range []float64{1, -0.5, 3, math.Copysign(0, -1)} {
						s.WriteFloat64s(a, tc.dst)
						inc := make([]byte, size)
						encodeFloat64s(inc, tc.add)
						want := bytes.Clone(s.Bytes(a, size))
						addFloat64s(want, inc, scale)
						AddFloat64s(s.Bytes(a, size), inc, scale)
						if got := s.Bytes(a, size); !bytes.Equal(got, want) {
							t.Fatalf("off %d, %d values, rot %d, scale %v: AddFloat64s left % x, the loop % x", off, n, rot, scale, got, want)
						}
					}
				}
			}
		}
	}
}
