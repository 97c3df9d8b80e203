package mem

import (
	"math/bits"
	"sync"
	"unsafe"
)

// PoolMin is the smallest range Borrow copies into a recycled buffer:
// 32 KiB, Go's large-object boundary. Above it every make is a span of its
// own, taken from the page heap and swept when it dies, and for a 1 MiB
// RDMA payload that costs the host more than the copy does. Below it the
// size-class allocator is as cheap as a pool would be.
const PoolMin = 32 << 10

// pools[i] holds buffers of PoolMin<<i bytes, 32 KiB to 64 MiB, each as a
// pointer to its first byte: a pointer goes into an interface without an
// allocation, where a slice header would take one per Return.
var pools [12]sync.Pool

// poolClass returns the index of the smallest class holding n bytes;
// n >= PoolMin.
func poolClass(n int) int {
	return bits.Len(uint(n-1)) - bits.Len(PoolMin-1)
}

// Borrow returns a copy of [a, a+n) that the caller hands back with Return
// once nothing reads it any more. A range of PoolMin bytes or more is
// copied into a recycled buffer of its power-of-two class; a shorter (or
// larger than any class) one is a Clone, which Return ignores.
func (s *Space) Borrow(a Addr, n int) []byte {
	if n < PoolMin || poolClass(n) >= len(pools) {
		return s.Clone(a, n)
	}
	c := poolClass(n)
	var b []byte
	if p, _ := pools[c].Get().(*byte); p != nil {
		b = unsafe.Slice(p, PoolMin<<c)[:n]
	} else {
		b = make([]byte, n, PoolMin<<c)
	}
	copy(b, s.Bytes(a, n))
	return b
}

// Return hands a buffer Borrow made back for reuse. Neither the caller nor
// anyone it shared b with may touch b afterwards: the next Borrow of its
// class may overwrite it. A buffer that is not one of Borrow's classes is
// left to the garbage collector.
func Return(b []byte) {
	n := cap(b)
	if n < PoolMin || n&(n-1) != 0 || poolClass(n) >= len(pools) {
		return
	}
	pools[poolClass(n)].Put(unsafe.SliceData(b))
}
