// Package mem implements per-process simulated address spaces. Every
// simulated process owns a Space: a growable byte heap with a first-fit
// allocator. Communication layers copy real bytes between spaces, so data
// correctness is testable end to end, not just timing.
package mem

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Addr is an offset into a process's address space. Address 0 is reserved
// (never returned by Alloc) so it can serve as a nil address.
type Addr uint64

// Nil is the invalid address.
const Nil Addr = 0

// alignment for all allocations; matches the L1-line alignment that the
// BG/Q messaging unit prefers (the sub-256-byte transfer penalty in the
// network model is about payload size, not base alignment).
const alignment = 64

type span struct{ off, size uint64 }

// Space is a single process's simulated heap. The zero value is an empty
// space, so a machine can hold its ranks' spaces in one slice; the heap's
// reserved first alignment bytes (address 0 stays invalid) come into
// being with the first Alloc. A space holds few blocks — the paper's σ
// global structures plus τ local buffers — so the allocation table is a
// sorted slice searched by bisection, and its first two entries live in
// the Space: a rank's first blocks cost no table of their own. A copy
// would share that table, so a Space is only ever handled by pointer.
//
// Up to KeepMax the heap is a buffer of the space's classes (Link):
// growing it hands the old buffer back, and Release hands back the last,
// so the heaps of a world's ranks are made once for the worlds of one
// owner.
type Space struct {
	_      sim.NoCopy
	buf    []byte   // nil until first touched; logically alignment zero bytes
	bufs   *Classes // where the heap comes from and goes back to; see classes
	free   []span   // sorted by offset, coalesced, non-adjacent
	allocs []span   // live blocks, sorted by offset; starts on first
	first  [2]span
	used   uint64
}

// NewSpace returns an empty address space.
func NewSpace() *Space { return new(Space) }

// Link makes c the classes the space's heap comes from: those of the lane
// the space's process runs on, since only that lane allocates in it.
func (s *Space) Link(c *Classes) { s.bufs = c }

// classes returns the classes the heap comes from. A space nothing linked
// (NewSpace, a zero Space) gets classes of its own.
func (s *Space) classes() *Classes {
	if s.bufs == nil {
		st := new(Stocks)
		st.Init()
		s.bufs = new(Classes)
		s.bufs.Link(st)
	}
	return s.bufs
}

func alignUp(n uint64) uint64 {
	return (n + alignment - 1) &^ uint64(alignment-1)
}

// Alloc reserves n bytes and returns their base address. The memory is
// zeroed. Allocating zero bytes returns a valid unique address of size one
// (callers use zero-length arrays as synchronization anchors).
func (s *Space) Alloc(n int) Addr {
	if n < 0 {
		panic("mem: negative allocation")
	}
	if n == 0 {
		n = 1
	}
	size := alignUp(uint64(n))
	// First fit over the free list.
	for i, sp := range s.free {
		if sp.size >= size {
			addr := Addr(sp.off)
			if sp.size == size {
				s.free = append(s.free[:i], s.free[i+1:]...)
			} else {
				s.free[i] = span{off: sp.off + size, size: sp.size - size}
			}
			s.commit(addr, size)
			return addr
		}
	}
	// Grow the heap to off+size; from an untouched space that brings the
	// reserved bytes with it, in the same array.
	off := uint64(s.Capacity())
	s.grow(int(off + size))
	addr := Addr(off)
	s.commit(addr, size)
	return addr
}

// grow extends the heap to n bytes. Within the buffer's capacity that is
// a reslice; past it the heap moves to a buffer of the next class and the
// old one goes back. The bytes a recycled buffer exposes beyond the old
// heap are the new block's, which commit zeroes, and, on first touch, the
// reserved ones, zeroed here. A heap past KeepMax, which no shelf keeps
// beyond its world, is the collector's and grows as append grows it: a
// class would round it up to a power of two and hold the buffer it
// outgrew until the world ends.
func (s *Space) grow(n int) {
	old := s.buf
	if n <= cap(old) {
		s.buf = old[:n]
		return
	}
	if n > KeepMax {
		s.buf = append(old, make([]byte, n-len(old))...)
	} else {
		s.buf = s.classes().Buf(n)
		if old == nil {
			clear(s.buf[:alignment])
		} else {
			copy(s.buf, old)
		}
	}
	s.handBack(old)
}

// Release hands the heap back to the space's classes: its process's world
// has ended. Every view of it is void, and the space holds no bytes any
// more, only its allocation table.
func (s *Space) Release() {
	s.handBack(s.buf)
	s.buf = nil
}

// handBack returns a heap buffer to the space's classes, unless it is
// past KeepMax and so the collector's.
func (s *Space) handBack(b []byte) {
	if b != nil && cap(b) <= KeepMax {
		s.classes().Return(b)
	}
}

func (s *Space) commit(a Addr, size uint64) {
	if s.allocs == nil {
		s.allocs = s.first[:0]
	}
	i := s.find(a)
	s.allocs = append(s.allocs, span{})
	copy(s.allocs[i+1:], s.allocs[i:])
	s.allocs[i] = span{off: uint64(a), size: size}
	s.used += size
	b := s.buf[a : uint64(a)+size]
	for i := range b {
		b[i] = 0
	}
}

// Free releases a previously allocated block. Freeing an unknown address
// panics: it is always a bug in the caller.
func (s *Space) Free(a Addr) {
	i := s.find(a)
	if i == len(s.allocs) || s.allocs[i].off != uint64(a) {
		panic(fmt.Sprintf("mem: free of unallocated address %#x", uint64(a)))
	}
	size := s.allocs[i].size
	s.allocs = append(s.allocs[:i], s.allocs[i+1:]...)
	s.used -= size
	s.insertFree(span{off: uint64(a), size: size})
}

// find returns the index of the first live block at or above a.
func (s *Space) find(a Addr) int {
	return sort.Search(len(s.allocs), func(i int) bool { return s.allocs[i].off >= uint64(a) })
}

// insertFree adds a span to the free list, keeping it sorted and coalesced.
func (s *Space) insertFree(sp span) {
	i := sort.Search(len(s.free), func(i int) bool { return s.free[i].off >= sp.off })
	s.free = append(s.free, span{})
	copy(s.free[i+1:], s.free[i:])
	s.free[i] = sp
	// Coalesce with successor, then predecessor.
	if i+1 < len(s.free) && s.free[i].off+s.free[i].size == s.free[i+1].off {
		s.free[i].size += s.free[i+1].size
		s.free = append(s.free[:i+1], s.free[i+2:]...)
	}
	if i > 0 && s.free[i-1].off+s.free[i-1].size == s.free[i].off {
		s.free[i-1].size += s.free[i].size
		s.free = append(s.free[:i], s.free[i+1:]...)
	}
}

// SizeOf returns the allocated size of the block at a, or 0 if unknown.
func (s *Space) SizeOf(a Addr) int {
	if i := s.find(a); i < len(s.allocs) && s.allocs[i].off == uint64(a) {
		return int(s.allocs[i].size)
	}
	return 0
}

// Bytes returns a live view of [a, a+n). The view must lie entirely within
// the heap. It remains valid until the next Alloc (which may move the heap
// and recycle the old buffer) or Release, so callers must not retain it
// across either.
func (s *Space) Bytes(a Addr, n int) []byte {
	if s.buf == nil {
		s.buf = make([]byte, alignment) // the reserved bytes of a space nothing was allocated in
	}
	if n < 0 || uint64(a)+uint64(n) > uint64(len(s.buf)) || a == Nil && n > 0 {
		panic(fmt.Sprintf("mem: bad range [%#x,+%d) in heap of %d", uint64(a), n, len(s.buf)))
	}
	return s.buf[a : uint64(a)+uint64(n) : uint64(a)+uint64(n)]
}

// CopyOut copies n bytes starting at a into dst (which must be length n).
func (s *Space) CopyOut(a Addr, dst []byte) {
	copy(dst, s.Bytes(a, len(dst)))
}

// CopyIn copies src into the heap at address a.
func (s *Space) CopyIn(a Addr, src []byte) {
	copy(s.Bytes(a, len(src)), src)
}

// Used returns the number of allocated bytes.
func (s *Space) Used() int { return int(s.used) }

// Capacity returns the current heap size in bytes, reserved bytes included.
func (s *Space) Capacity() int {
	if s.buf == nil {
		return alignment
	}
	return len(s.buf)
}

// LiveAllocs returns the number of outstanding allocations.
func (s *Space) LiveAllocs() int { return len(s.allocs) }
