package mem

import (
	"bytes"
	"sync"
	"testing"
)

// TestBorrowCopies: a borrowed range holds the bytes the range held when
// it was borrowed, at its own length and in its class's capacity,
// whichever buffer it lands in — a fresh one, or one a larger borrow of
// the same class returned. Class 0 serves every length up to PoolMin.
func TestBorrowCopies(t *testing.T) {
	s := NewSpace()
	a := s.Alloc(64 << 10)
	for _, n := range []int{0, 1, 63, 64, 65, 100, 32<<10 - 1, 32 << 10, 32<<10 + 1, 64 << 10} {
		for seed := byte(1); seed <= 2; seed++ {
			want := make([]byte, n)
			for i := range want {
				want[i] = seed ^ byte(i) ^ byte(i>>8)
			}
			s.CopyIn(a, want)
			b := s.Borrow(a, n)
			if !bytes.Equal(b, want) {
				t.Fatalf("Borrow of %d bytes (seed %d) does not hold the range", n, seed)
			}
			if want := PoolMin << poolClass(n); cap(b) != want || n <= PoolMin && want != PoolMin {
				t.Errorf("Borrow of %d bytes: cap %d, class %d's %d", n, cap(b), poolClass(n), want)
			}
			s.CopyIn(a, make([]byte, n))
			if !bytes.Equal(b, want) {
				t.Fatalf("Borrow of %d bytes is a view of the range, not a copy", n)
			}
			Return(b)
		}
	}
}

// TestBorrowConcurrent: the pool is shared by every simulation in the
// process and every lane worker of one, so buffers cross goroutines: one
// borrowed on one may have been returned on another, and must hold only
// its borrower's bytes.
func TestBorrowConcurrent(t *testing.T) {
	const workers, rounds, n = 4, 50, 32<<10 + 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed byte) {
			defer wg.Done()
			s := NewSpace()
			a := s.Alloc(n)
			want := bytes.Repeat([]byte{seed}, n)
			s.CopyIn(a, want)
			for i := 0; i < rounds; i++ {
				b := s.Borrow(a, n)
				if !bytes.Equal(b, want) {
					t.Errorf("worker %d: a borrowed buffer holds another worker's bytes", seed)
					return
				}
				Return(b)
			}
		}(byte(w + 1))
	}
	wg.Wait()
}

// TestBorrowReturnAllocFree: a payload borrowed and returned over and over
// is one buffer, not one per borrow — the host cost of a message's payload
// that this pool exists to remove — from class 0 to a 64 KiB RDMA one.
func TestBorrowReturnAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates, and sync.Pool drops buffers under it")
	}
	s := NewSpace()
	a := s.Alloc(64 << 10)
	for _, n := range []int{1, 63, 64, 65, 64 << 10} {
		cycle := func() { Return(s.Borrow(a, n)) }
		cycle() // warm-up: the class's first buffer
		if got := testing.AllocsPerRun(100, cycle); got != 0 {
			t.Errorf("a %d-byte Borrow + Return allocates %v times, want 0", n, got)
		}
	}
}

// TestReturnPoisons: under the race detector a returned buffer reads as
// Poison, so that a reader which outlives its payload sees bytes no sender
// wrote; otherwise Return leaves the bytes alone. A buffer whose capacity
// is not a class is never pooled, and never poisoned.
func TestReturnPoisons(t *testing.T) {
	b := Buf(40)
	for i := range b {
		b[i] = 7
	}
	odd := make([]byte, 40, 48)
	Return(b)
	Return(odd)
	for i, v := range b[:cap(b)] {
		if raceEnabled && v != Poison {
			t.Fatalf("returned buffer: byte %d is %#x, want Poison", i, v)
		}
		if !raceEnabled && i < len(b) && v != 7 {
			t.Fatalf("returned buffer: byte %d is %#x, want it untouched without -race", i, v)
		}
	}
	if odd[0] != 0 {
		t.Errorf("a 48-byte-capacity buffer was poisoned: it is no class's")
	}
}
