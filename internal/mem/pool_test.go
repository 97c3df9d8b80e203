package mem

import (
	"bytes"
	"sync"
	"testing"
	"unsafe"
)

// TestBorrowCopies: a borrowed range holds the bytes the range held when
// it was borrowed, at its own length and in its class's capacity,
// whichever buffer it lands in — a fresh one, or one a larger borrow of
// the same class returned. Class 0 serves every length up to PoolMin.
func TestBorrowCopies(t *testing.T) {
	_, lanes := stocked(1)
	c := &lanes[0]
	s := NewSpace()
	a := s.Alloc(64 << 10)
	for _, n := range []int{0, 1, 63, 64, 65, 100, 32<<10 - 1, 32 << 10, 32<<10 + 1, 64 << 10} {
		for seed := byte(1); seed <= 2; seed++ {
			want := make([]byte, n)
			for i := range want {
				want[i] = seed ^ byte(i) ^ byte(i>>8)
			}
			s.CopyIn(a, want)
			b := c.Borrow(s, a, n)
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
			c.Return(b)
		}
	}
}

// stocked returns n lanes' classes linked to one set of stocks, as a
// world's lanes are to their shelf's.
func stocked(n int) (*Stocks, []Classes) {
	st := new(Stocks)
	st.Init()
	lanes := make([]Classes, n)
	for i := range lanes {
		lanes[i].Link(st)
	}
	return st, lanes
}

// TestBorrowConcurrent: a world's lanes run on parallel workers and share
// their stocks, and a buffer borrowed on one lane is returned on another,
// so buffers cross goroutines: each must hold only its borrower's bytes.
// Each worker borrows on its own lane and returns on the next worker's,
// under that lane's lock, since a lane's events run on one worker at a
// time; so lists run dry on one lane and grow on another.
func TestBorrowConcurrent(t *testing.T) {
	const workers, rounds = 4, 200
	for _, n := range []int{100, 32<<10 + 100} {
		_, lanes := stocked(workers)
		var wg sync.WaitGroup
		var mu [workers]sync.Mutex
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int, seed byte) {
				defer wg.Done()
				s := NewSpace()
				a := s.Alloc(n)
				want := bytes.Repeat([]byte{seed}, n)
				s.CopyIn(a, want)
				for i := 0; i < rounds; i++ {
					mu[w].Lock()
					b := lanes[w].Borrow(s, a, n)
					mu[w].Unlock()
					if !bytes.Equal(b, want) {
						t.Errorf("worker %d: a borrowed buffer holds another worker's bytes", w)
						return
					}
					next := (w + 1) % workers
					mu[next].Lock()
					lanes[next].Return(b)
					mu[next].Unlock()
				}
			}(w, byte(w+1))
		}
		wg.Wait()
	}
}

// TestStocksKeepSmallClasses: buffers a world's lanes hold go back to the
// stocks at its end, and the next world's lanes borrow them instead of
// making their own; a class above KeepMax is dropped instead, so that
// what outlives a world is small.
func TestStocksKeepSmallClasses(t *testing.T) {
	st, lanes := stocked(2)
	s := NewSpace()
	a := s.Alloc(2 * KeepMax)
	small, large := lanes[0].Borrow(s, a, KeepMax), lanes[0].Borrow(s, a, KeepMax+1)
	lanes[1].Return(small)
	lanes[1].Return(large)
	for i := range lanes {
		lanes[i].Flush()
	}
	st.Trim()
	if b := lanes[0].Borrow(s, a, KeepMax); unsafe.SliceData(b) != unsafe.SliceData(small) {
		t.Errorf("a %d-byte buffer did not outlive its world", KeepMax)
	}
	if b := lanes[0].Borrow(s, a, KeepMax+1); unsafe.SliceData(b) == unsafe.SliceData(large) {
		t.Errorf("a %d-byte buffer outlived its world", KeepMax+1)
	}
}

// TestStockReclaim: when a world ends, every item its stock cut is free
// again and zeroed, those the world never gave back included: a world
// stopped mid-run neither loses the items it took nor keeps itself alive
// through what they point to.
func TestStockReclaim(t *testing.T) {
	type flight struct {
		world *int
		n     int
	}
	var st Stock[flight]
	st.Init(4, true)
	var lanes [2]Free[flight]
	for i := range lanes {
		lanes[i].Link(&st)
	}
	world := new(int)
	var taken []*flight
	for i := 0; i < 10; i++ {
		f := lanes[i%2].Get()
		f.world, f.n = world, i+1
		taken = append(taken, f)
	}
	lanes[1].Put(taken[0]) // the one flight the world gave back
	for i := range lanes {
		lanes[i].Drop()
	}
	st.Reclaim()
	free := map[*flight]bool{}
	for _, f := range st.items {
		if *f != (flight{}) {
			t.Fatalf("a reclaimed item still holds %+v", *f)
		}
		free[f] = true
	}
	if len(free) != len(st.items) || len(free) != 4*len(st.chunks) {
		t.Fatalf("%d items free, %d distinct, of %d chunks of 4", len(st.items), len(free), len(st.chunks))
	}
	for i, f := range taken {
		if !free[f] {
			t.Errorf("item %d, taken and not given back, is not free again", i)
		}
	}
}

// TestBorrowReturnAllocFree: a payload borrowed and returned over and over
// is one buffer, not one per borrow — the host cost of a message's payload
// that the classes exist to remove — from class 0 to a 64 KiB RDMA one,
// whether it returns to the lane that borrowed it or to another one.
func TestBorrowReturnAllocFree(t *testing.T) {
	_, lanes := stocked(2)
	s := NewSpace()
	a := s.Alloc(64 << 10)
	for _, n := range []int{1, 63, 64, 65, 64 << 10} {
		cycle := func() { lanes[1].Return(lanes[0].Borrow(s, a, n)) }
		for range 64 {
			cycle() // warm-up: the buffers that circulate between the lanes and their stock
		}
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
	_, lanes := stocked(1)
	c := &lanes[0]
	b := c.Buf(40)
	for i := range b {
		b[i] = 7
	}
	odd := make([]byte, 40, 48)
	c.Return(b)
	c.Return(odd)
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
