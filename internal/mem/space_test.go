package mem

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestAllocBasics(t *testing.T) {
	s := NewSpace()
	a := s.Alloc(100)
	b := s.Alloc(200)
	if a == Nil || b == Nil || a == b {
		t.Fatalf("a=%v b=%v", a, b)
	}
	if s.LiveAllocs() != 2 {
		t.Fatalf("live=%d", s.LiveAllocs())
	}
	if s.SizeOf(a) < 100 || s.SizeOf(b) < 200 {
		t.Fatal("sizes too small")
	}
}

func TestAllocZeroed(t *testing.T) {
	s := NewSpace()
	a := s.Alloc(64)
	s.CopyIn(a, []byte{1, 2, 3, 4})
	s.Free(a)
	b := s.Alloc(64)
	if b != a {
		t.Fatalf("expected reuse of freed block, got %v vs %v", b, a)
	}
	for i, v := range s.Bytes(b, 64) {
		if v != 0 {
			t.Fatalf("byte %d not zeroed: %d", i, v)
		}
	}
}

func TestAddressZeroNeverReturned(t *testing.T) {
	s := NewSpace()
	for i := 0; i < 100; i++ {
		if s.Alloc(8) == Nil {
			t.Fatal("Alloc returned nil address")
		}
	}
}

func TestFreeUnknownPanics(t *testing.T) {
	s := NewSpace()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Free(Addr(4096))
}

func TestCopyRoundTrip(t *testing.T) {
	s := NewSpace()
	a := s.Alloc(256)
	src := make([]byte, 256)
	for i := range src {
		src[i] = byte(i)
	}
	s.CopyIn(a, src)
	dst := make([]byte, 256)
	s.CopyOut(a, dst)
	for i := range dst {
		if dst[i] != src[i] {
			t.Fatalf("byte %d: %d != %d", i, dst[i], src[i])
		}
	}
}

func TestBytesOutOfRangePanics(t *testing.T) {
	s := NewSpace()
	a := s.Alloc(16)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Bytes(a, s.Capacity()+1)
}

func TestCoalescing(t *testing.T) {
	s := NewSpace()
	a := s.Alloc(64)
	b := s.Alloc(64)
	c := s.Alloc(64)
	s.Free(a)
	s.Free(c)
	s.Free(b) // middle free must merge all three
	if len(s.free) != 1 {
		t.Fatalf("free list has %d spans, want 1: %v", len(s.free), s.free)
	}
	// A large allocation should now fit in the coalesced span.
	d := s.Alloc(192)
	if d != a {
		t.Fatalf("coalesced span not reused: %v vs %v", d, a)
	}
}

func TestUsedAccounting(t *testing.T) {
	s := NewSpace()
	if s.Used() != 0 {
		t.Fatal("fresh space not empty")
	}
	a := s.Alloc(100)
	used := s.Used()
	if used < 100 {
		t.Fatalf("used=%d", used)
	}
	s.Free(a)
	if s.Used() != 0 {
		t.Fatalf("used=%d after free", s.Used())
	}
}

func TestAllocZeroLength(t *testing.T) {
	s := NewSpace()
	a := s.Alloc(0)
	b := s.Alloc(0)
	if a == Nil || b == Nil || a == b {
		t.Fatal("zero-length allocations must be unique and valid")
	}
}

// Property: a randomized alloc/free workload never yields overlapping live
// blocks, and used-byte accounting stays consistent.
func TestAllocatorNoOverlapProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewSpace()
		type block struct {
			addr Addr
			size int
		}
		var live []block
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				i := int(op/3) % len(live)
				s.Free(live[i].addr)
				live = append(live[:i], live[i+1:]...)
			} else {
				n := int(op%500) + 1
				a := s.Alloc(n)
				live = append(live, block{a, n})
			}
		}
		// No two live blocks overlap.
		for i := 0; i < len(live); i++ {
			for j := i + 1; j < len(live); j++ {
				ai, ae := uint64(live[i].addr), uint64(live[i].addr)+uint64(s.SizeOf(live[i].addr))
				bi, be := uint64(live[j].addr), uint64(live[j].addr)+uint64(s.SizeOf(live[j].addr))
				if ai < be && bi < ae {
					return false
				}
			}
		}
		return s.LiveAllocs() == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	s := NewSpace()
	a := s.Alloc(8 * 16)
	src := make([]float64, 16)
	for i := range src {
		src[i] = float64(i) * 1.5
	}
	s.WriteFloat64s(a, src)
	dst := make([]float64, 16)
	s.ReadFloat64s(a, dst)
	for i := range dst {
		if dst[i] != src[i] {
			t.Fatalf("elem %d: %v != %v", i, dst[i], src[i])
		}
	}
	s.SetFloat64(a, 3.25)
	if s.GetFloat64(a) != 3.25 {
		t.Fatal("scalar round trip failed")
	}
}

func TestAddFloat64s(t *testing.T) {
	s := NewSpace()
	a := s.Alloc(8 * 4)
	s.WriteFloat64s(a, []float64{1, 2, 3, 4})
	incoming := NewSpace()
	b := incoming.Alloc(8 * 4)
	incoming.WriteFloat64s(b, []float64{10, 20, 30, 40})
	AddFloat64s(s.Bytes(a, 32), incoming.Bytes(b, 32), 0.5)
	got := make([]float64, 4)
	s.ReadFloat64s(a, got)
	want := []float64{6, 12, 18, 24}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("elem %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestInt64Accessors(t *testing.T) {
	s := NewSpace()
	a := s.Alloc(8)
	s.SetInt64(a, -12345)
	if s.GetInt64(a) != -12345 {
		t.Fatal("int64 round trip failed")
	}
}

// TestZeroSpace: a Space is usable as the zero value — pami.Machine holds
// every rank's in one slice — and an untouched one is indistinguishable
// from a used one that has nothing allocated: 64 reserved bytes, address
// 0 never handed out, unknown addresses unknown.
func TestZeroSpace(t *testing.T) {
	spaces := make([]Space, 3)
	s := &spaces[1]
	if got := s.Capacity(); got != alignment {
		t.Errorf("untouched Capacity = %d, want the %d reserved bytes", got, alignment)
	}
	if s.Used() != 0 || s.LiveAllocs() != 0 || s.SizeOf(alignment) != 0 {
		t.Error("untouched space reports allocations")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Free on an untouched space did not panic")
			}
		}()
		s.Free(alignment)
	}()
	if len(s.Bytes(Nil, 0)) != 0 || len(s.Bytes(8, 8)) != 8 {
		t.Error("the reserved bytes of an untouched space are not viewable")
	}

	ref := NewSpace()
	for i, n := range []int{0, 1, 100, 64, 4096} {
		a, want := s.Alloc(n), ref.Alloc(n)
		if a == Nil || a != want {
			t.Fatalf("alloc %d (%d bytes) = %#x, NewSpace gives %#x", i, n, uint64(a), uint64(want))
		}
		if s.SizeOf(a) != ref.SizeOf(a) || s.Capacity() != ref.Capacity() {
			t.Fatalf("alloc %d: SizeOf %d vs %d, Capacity %d vs %d",
				i, s.SizeOf(a), ref.SizeOf(a), s.Capacity(), ref.Capacity())
		}
	}
	if spaces[0].Capacity() != alignment || spaces[2].LiveAllocs() != 0 {
		t.Error("allocating in one space touched its neighbours")
	}
}

// TestSpaceHeapRecycles: a space's heap is a buffer of its classes. Growing
// hands the old buffer back, Release hands back the last, and a space that
// takes a recycled buffer reads zeros where the last owner wrote: in its
// reserved bytes and in every block it allocates. Under -race the bytes a
// released heap held read Poison through a view kept past Release. A heap
// past KeepMax is the collector's: Release leaves its bytes alone.
func TestSpaceHeapRecycles(t *testing.T) {
	_, lanes := stocked(1)
	var a, b Space
	a.Link(&lanes[0])
	b.Link(&lanes[0])

	x := a.Alloc(100)
	small := a.Bytes(x, 100)
	y := a.Alloc(1000)                 // moves the heap: the first buffer goes back
	heap := a.Bytes(1, a.Capacity()-1) // all but address 0, reserved bytes included
	for i := range heap {
		heap[i] = 0xAB
	}
	if raceEnabled && small[0] != Poison {
		t.Errorf("the heap a space outgrew reads %#x, want Poison", small[0])
	}
	a.Release()
	if raceEnabled && heap[len(heap)-1] != Poison {
		t.Errorf("a released heap reads %#x, want Poison", heap[len(heap)-1])
	}
	if a.SizeOf(y) != 1024 || a.Used() != 128+1024 {
		t.Errorf("Release changed the allocation table: SizeOf %d, Used %d", a.SizeOf(y), a.Used())
	}

	z := b.Alloc(1000) // the class a released
	got := b.Bytes(1, b.Capacity()-1)
	if unsafe.SliceData(got) != unsafe.SliceData(heap) {
		t.Fatal("a space of the same classes did not take the released heap")
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("byte %d of a recycled heap reads %#x, want 0 (block at %#x)", i, v, uint64(z))
		}
	}

	big := b.Bytes(b.Alloc(KeepMax), KeepMax)
	big[0] = 7
	b.Release()
	if big[0] != 7 {
		t.Errorf("a released heap past KeepMax reads %#x: it went back to the classes", big[0])
	}
}
