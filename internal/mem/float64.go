package mem

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// The PGAS layers move float64 matrices; these helpers give typed access
// to byte ranges in a Space. All encodings are little-endian, matching the
// in-memory layout the numeric kernels assume. On a little-endian host an
// 8-aligned range already is a []float64 in that encoding, so the bulk
// helpers read and write it through a view (one copy, or one plain loop);
// the per-element loops below are the reference and the path for a
// big-endian host or a misaligned range.

// Float64Size is the byte width of one element.
const Float64Size = 8

// littleEndian reports whether the host lays a float64 out in memory the
// way a Space encodes it.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// float64View returns b's whole float64s in place, when the host is
// little-endian and b starts on an 8-byte boundary; ok is false otherwise
// (and for a b too short to hold one), and the caller takes the loop. The
// race detector's checkptr does not check the alignment of a pointer-free
// element type (Go issue 37298), so the alignment test here is the whole
// guard.
func float64View(b []byte) (v []float64, ok bool) {
	if !littleEndian || len(b) < Float64Size {
		return nil, false
	}
	p := unsafe.Pointer(unsafe.SliceData(b))
	if uintptr(p)%Float64Size != 0 {
		return nil, false
	}
	return unsafe.Slice((*float64)(p), len(b)/Float64Size), true
}

// GetFloat64 reads one float64 at address a.
func (s *Space) GetFloat64(a Addr) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(s.Bytes(a, Float64Size)))
}

// SetFloat64 writes one float64 at address a.
func (s *Space) SetFloat64(a Addr, v float64) {
	binary.LittleEndian.PutUint64(s.Bytes(a, Float64Size), math.Float64bits(v))
}

// ReadFloat64s decodes n float64s starting at a into dst.
func (s *Space) ReadFloat64s(a Addr, dst []float64) {
	b := s.Bytes(a, len(dst)*Float64Size)
	if v, ok := float64View(b); ok {
		copy(dst, v)
		return
	}
	decodeFloat64s(dst, b)
}

// WriteFloat64s encodes src into the heap starting at a.
func (s *Space) WriteFloat64s(a Addr, src []float64) {
	b := s.Bytes(a, len(src)*Float64Size)
	if v, ok := float64View(b); ok {
		copy(v, src)
		return
	}
	encodeFloat64s(b, src)
}

// AddFloat64s atomically (in simulation time the caller serializes)
// accumulates src into the heap: heap[i] += scale*src[i]. This is the
// target-side kernel of ARMCI accumulate.
func AddFloat64s(dst []byte, src []byte, scale float64) {
	n := len(src) / Float64Size * Float64Size
	d, dok := float64View(dst[:n])
	s, sok := float64View(src[:n])
	if !dok || !sok {
		addFloat64s(dst, src, scale)
		return
	}
	for i, add := range s {
		d[i] = d[i] + float64(scale*add)
	}
}

// decodeFloat64s is ReadFloat64s element by element.
func decodeFloat64s(dst []float64, b []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[Float64Size:]
	}
}

// encodeFloat64s is WriteFloat64s element by element.
func encodeFloat64s(b []byte, src []float64) {
	for _, v := range src {
		binary.LittleEndian.PutUint64(b, math.Float64bits(v))
		b = b[Float64Size:]
	}
}

// addFloat64s is AddFloat64s element by element.
func addFloat64s(dst []byte, src []byte, scale float64) {
	n := len(src) / Float64Size
	for i := 0; i < n; i++ {
		off := i * Float64Size
		cur := math.Float64frombits(binary.LittleEndian.Uint64(dst[off:]))
		add := math.Float64frombits(binary.LittleEndian.Uint64(src[off:]))
		binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(cur+float64(scale*add)))
	}
}

// GetInt64 reads one int64 at address a (used by atomic counters).
func (s *Space) GetInt64(a Addr) int64 {
	return int64(binary.LittleEndian.Uint64(s.Bytes(a, 8)))
}

// SetInt64 writes one int64 at address a.
func (s *Space) SetInt64(a Addr, v int64) {
	binary.LittleEndian.PutUint64(s.Bytes(a, 8), uint64(v))
}
