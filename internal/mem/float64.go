package mem

import (
	"encoding/binary"
	"math"
)

// The PGAS layers move float64 matrices; these helpers give typed access
// to byte ranges in a Space without copying through intermediate buffers
// more than necessary. All encodings are little-endian, matching the
// in-memory layout the numeric kernels assume.

// Float64Size is the byte width of one element.
const Float64Size = 8

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
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[Float64Size:]
	}
}

// WriteFloat64s encodes src into the heap starting at a.
func (s *Space) WriteFloat64s(a Addr, src []float64) {
	b := s.Bytes(a, len(src)*Float64Size)
	for _, v := range src {
		binary.LittleEndian.PutUint64(b, math.Float64bits(v))
		b = b[Float64Size:]
	}
}

// AddFloat64s atomically (in simulation time the caller serializes)
// accumulates src into the heap: heap[i] += scale*src[i]. This is the
// target-side kernel of ARMCI accumulate.
func AddFloat64s(dst []byte, src []byte, scale float64) {
	n := len(src) / Float64Size
	for i := 0; i < n; i++ {
		off := i * Float64Size
		cur := math.Float64frombits(binary.LittleEndian.Uint64(dst[off:]))
		add := math.Float64frombits(binary.LittleEndian.Uint64(src[off:]))
		binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(cur+scale*add))
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
