package mem

import (
	"fmt"
	"sort"
	"testing"
)

// FuzzSpaceAllocFree runs generated Alloc/Free/SizeOf sequences against a
// map-backed model of the allocation table. Each operation is two input
// bytes: an opcode and an argument (a size, or which live block to aim
// at). After every operation the space must agree with the model: live
// blocks never overlap and lie inside the heap, SizeOf and LiveAllocs
// match, Used is the sum of the live sizes, and every live block still
// holds the byte it was filled with, so a block handed out twice shows
// up as a clobbered tag. Freeing an address that is not a live block's
// base panics and changes nothing.
func FuzzSpaceAllocFree(f *testing.F) {
	f.Add([]byte{0, 10, 0, 200, 1, 0, 0, 3, 2, 1, 3, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 255, 4, 2})
	f.Add([]byte{0, 64, 0, 65, 0, 128, 1, 1, 0, 1, 3, 1, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := NewSpace()
		model := map[Addr]uint64{}
		tags := map[Addr]byte{}
		var order []Addr // live bases in allocation order, to pick from
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%5, int(ops[i+1])
			var what string
			switch {
			case op == 0: // Alloc, sizes 0..1275 in steps that cross the alignment
				n := arg * 5
				a := s.Alloc(n)
				if _, dup := model[a]; dup {
					t.Fatalf("op %d: Alloc(%d) = %#x, which is live", i/2, n, uint64(a))
				}
				model[a] = alignUp(uint64(max(n, 1)))
				tags[a] = byte(i/2) | 1
				for j, b := range s.Bytes(a, int(model[a])) {
					if b != 0 {
						t.Fatalf("op %d: Alloc(%d) byte %d is %#x, not zeroed", i/2, n, j, b)
					}
				}
				fill(s, a, model[a], tags[a])
				order = append(order, a)
				what = fmt.Sprintf("Alloc(%d) = %#x", n, uint64(a))
			case op == 1 && len(order) > 0: // Free a live block
				k := arg % len(order)
				a := order[k]
				s.Free(a)
				delete(model, a)
				delete(tags, a)
				order = append(order[:k], order[k+1:]...)
				what = fmt.Sprintf("Free(%#x)", uint64(a))
			case op == 2: // SizeOf a live base, or of an address inside or past one
				a := Addr(arg)
				if len(order) > 0 {
					a = order[arg%len(order)] + Addr(arg%3)*8
				}
				if got, want := s.SizeOf(a), int(model[a]); got != want {
					t.Fatalf("op %d: SizeOf(%#x) = %d, model %d", i/2, uint64(a), got, want)
				}
				what = fmt.Sprintf("SizeOf(%#x)", uint64(a))
			case op == 3: // Free of an address that is no live base panics
				a := Addr(arg) * 8
				if len(order) > 0 {
					a = order[arg%len(order)] + Addr(1+arg%63)
				}
				if _, live := model[a]; live {
					continue
				}
				if !panics(func() { s.Free(a) }) {
					t.Fatalf("op %d: Free(%#x) of no live block did not panic", i/2, uint64(a))
				}
				what = fmt.Sprintf("Free(%#x) panicked", uint64(a))
			default:
				continue
			}
			check(t, s, model, tags, fmt.Sprintf("op %d %s", i/2, what))
		}
	})
}

func fill(s *Space, a Addr, size uint64, tag byte) {
	b := s.Bytes(a, int(size))
	for i := range b {
		b[i] = tag
	}
}

func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// check holds the space to the model after one operation.
func check(t *testing.T, s *Space, model map[Addr]uint64, tags map[Addr]byte, op string) {
	t.Helper()
	if s.LiveAllocs() != len(model) {
		t.Fatalf("after %s: LiveAllocs %d, model %d", op, s.LiveAllocs(), len(model))
	}
	bases := make([]Addr, 0, len(model))
	used := uint64(0)
	for a, size := range model {
		bases = append(bases, a)
		used += size
		if got := s.SizeOf(a); got != int(size) {
			t.Fatalf("after %s: SizeOf(%#x) = %d, model %d", op, uint64(a), got, size)
		}
		for j, b := range s.Bytes(a, int(size)) {
			if b != tags[a] {
				t.Fatalf("after %s: block %#x byte %d is %#x, want its tag %#x", op, uint64(a), j, b, tags[a])
			}
		}
	}
	if s.Used() != int(used) {
		t.Fatalf("after %s: Used %d, live sizes sum to %d", op, s.Used(), used)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	for i, a := range bases {
		if a == Nil || uint64(a)%alignment != 0 {
			t.Fatalf("after %s: block at %#x", op, uint64(a))
		}
		end := uint64(a) + model[a]
		if end > uint64(s.Capacity()) {
			t.Fatalf("after %s: block %#x+%d runs past the heap (%d)", op, uint64(a), model[a], s.Capacity())
		}
		if i+1 < len(bases) && end > uint64(bases[i+1]) {
			t.Fatalf("after %s: blocks %#x+%d and %#x overlap", op, uint64(a), model[a], uint64(bases[i+1]))
		}
	}
}
