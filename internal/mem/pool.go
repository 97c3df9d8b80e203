package mem

import (
	"math/bits"
	"sync"
	"unsafe"
)

// PoolMin is the smallest buffer class: class 0 serves every n <= 64, and
// class i holds PoolMin<<i bytes. Below Go's 32 KiB large-object boundary
// the size-class allocator is not as cheap as a pool: on a 2-core host,
// pooling only the RDMA payloads under 32 KiB gave rdma_stream 15 % fewer
// allocations per operation, 9 % less resident memory and a 2-5 % lower
// operation cost.
const PoolMin = 64

// pools[i] holds buffers of PoolMin<<i bytes, 64 B to 64 MiB, each as a
// pointer to its first byte: a pointer goes into an interface without an
// allocation, where a slice header would take one per Return. A sync.Pool
// is safe for parallel lane workers and for simulations run side by side,
// and it empties on GC, so what it keeps is bounded by the garbage made
// between two collections, not by how many ranks or nodes a world has.
var pools [21]sync.Pool

// Poison is the byte Return fills a buffer with under the race detector
// (raceEnabled), so that a reader which outlives the buffer's recycling
// reads bytes no sender wrote.
const Poison = 0xdb

// poolClass returns the index of the smallest class holding n bytes.
func poolClass(n int) int {
	if n <= PoolMin {
		return 0
	}
	return bits.Len(uint(n-1)) - bits.Len(PoolMin-1)
}

// Buf returns a buffer of length n whose contents are unspecified, for the
// caller to fill and hand back with Return once nothing reads it any more:
// a recycled buffer of n's power-of-two class, or a fresh one of that
// capacity. A length past the largest class is a plain make, which Return
// ignores.
func Buf(n int) []byte {
	c := poolClass(n)
	if c >= len(pools) {
		return make([]byte, n)
	}
	if p, _ := pools[c].Get().(*byte); p != nil {
		return unsafe.Slice(p, PoolMin<<c)[:n]
	}
	return make([]byte, n, PoolMin<<c)
}

// Borrow returns a copy of [a, a+n) in a Buf, which the caller hands back
// with Return once nothing reads it any more.
func (s *Space) Borrow(a Addr, n int) []byte {
	b := Buf(n)
	copy(b, s.Bytes(a, n))
	return b
}

// Return hands a buffer back for reuse. b must be its caller's outright —
// a Buf, a Borrow or its own make, never a view into a Space — and
// neither the caller nor anyone it shared b with may touch b afterwards:
// the next Buf of its class may overwrite it. A buffer whose capacity is
// not one of the classes is left to the garbage collector.
func Return(b []byte) {
	n := cap(b)
	if n < PoolMin || n&(n-1) != 0 || poolClass(n) >= len(pools) {
		return
	}
	if raceEnabled {
		b = b[:n]
		for i := range b {
			b[i] = Poison
		}
	}
	pools[poolClass(n)].Put(unsafe.SliceData(b))
}
