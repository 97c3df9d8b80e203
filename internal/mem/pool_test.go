package mem

import (
	"bytes"
	"sync"
	"testing"
)

// TestBorrowCopies: a borrowed range holds the bytes the range held when
// it was borrowed, at its own length, whichever buffer it lands in — a
// fresh one, or one a larger borrow of the same class returned.
func TestBorrowCopies(t *testing.T) {
	s := NewSpace()
	a := s.Alloc(2 * PoolMin)
	for _, n := range []int{0, 100, PoolMin - 1, PoolMin, PoolMin + 1, 2 * PoolMin} {
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
			if n >= PoolMin && cap(b) != PoolMin<<poolClass(n) {
				t.Errorf("Borrow of %d bytes: cap %d, want its class's %d", n, cap(b), PoolMin<<poolClass(n))
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
	const workers, rounds, n = 4, 50, PoolMin + 100
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

// TestBorrowReturnAllocFree: a 64 KiB payload borrowed and returned over
// and over is one buffer, not one per borrow — the host cost of an RDMA
// flight's payload that this pool exists to remove.
func TestBorrowReturnAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates, and sync.Pool drops buffers under it")
	}
	s := NewSpace()
	a := s.Alloc(64 << 10)
	cycle := func() { Return(s.Borrow(a, 64<<10)) }
	cycle() // warm-up: the class's first buffer
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a 64 KiB Borrow + Return allocates %v times, want 0", n)
	}
}
