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
type Space struct {
	_      sim.NoCopy
	buf    []byte // nil until first touched; logically alignment zero bytes
	free   []span // sorted by offset, coalesced, non-adjacent
	allocs []span // live blocks, sorted by offset; starts on first
	first  [2]span
	used   uint64
}

// NewSpace returns an empty address space.
func NewSpace() *Space { return new(Space) }

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
	// reserved bytes with it, in the same array. (append, not make: it
	// rounds the capacity up to the allocator's size class, which is
	// often room for the next small block.)
	off := uint64(s.Capacity())
	s.buf = append(s.buf, make([]byte, off+size-uint64(len(s.buf)))...)
	addr := Addr(off)
	s.commit(addr, size)
	return addr
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
// the heap. It remains valid until the next Alloc (which may grow the
// backing array), so callers must not retain it across allocations.
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
