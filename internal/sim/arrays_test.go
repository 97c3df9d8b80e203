package sim

import (
	"testing"
	"unsafe"
)

// arraysWorld runs a world of lanes lanes on kept: on each, timers timers
// fill the event heap and perLane threads sleep, yield (the ring) and log
// a cross-lane operation (the boundary log).
func arraysWorld(t *testing.T, kept *LaneArrays, lanes, perLane, timers int) *Kernel {
	t.Helper()
	k := NewKernel()
	k.ConfigureLanes(lanes, 1, 10, kept)
	for i, ln := range k.Lanes() {
		dst := k.Lanes()[(i+1)%lanes]
		for j := 0; j < timers; j++ {
			ln.At(Time(j+1), func() {})
		}
		for j := 0; j < perLane; j++ {
			k.SpawnOn(ln, "t", func(th *Thread) {
				th.Yield()
				th.Sleep(5)
				ln.Defer(th.Now()+10, func(at Time) { dst.ScheduleAbs(at+10, func() {}) })
			})
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return k
}

// data is the address of a slice's backing array.
func data[T any](s []T) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(s))) }

// TestLaneArraysReclaimClearsAndReuses: a world's lanes give their arrays
// back cleared and let go of them, a second world of the same shape runs
// on exactly those arrays without growing one, an array past
// arraysKeepMax is dropped, and a kernel that takes the arrays first takes
// them back from one that never gave them.
func TestLaneArraysReclaimClearsAndReuses(t *testing.T) {
	const lanes, perLane, timers = 3, 8, 40
	var kept LaneArrays
	k := arraysWorld(t, &kept, lanes, perLane, timers)
	kept.Reclaim()
	if len(kept.kept) != lanes {
		t.Fatalf("%d lanes' arrays kept, want %d", len(kept.kept), lanes)
	}
	for i, ln := range k.Lanes() {
		if ln.heap != nil || ln.ring.buf != nil || ln.deferred != nil || ln.threads != nil {
			t.Errorf("lane %d still holds its arrays after Reclaim", i)
		}
		a := &kept.kept[i]
		if len(a.heap) != 0 || len(a.deferred) != 0 || len(a.threads) != 0 {
			t.Errorf("lane %d: arrays kept non-empty", i)
		}
		if cap(a.heap) == 0 || len(a.ring) == 0 || cap(a.deferred) == 0 || cap(a.threads) < perLane {
			t.Errorf("lane %d: an array the world grew was not kept", i)
		}
		for _, e := range append(a.heap[:cap(a.heap)], a.ring...) {
			if e.a != nil {
				t.Fatalf("lane %d: a kept event still holds its action", i)
			}
		}
		for _, th := range a.threads[:cap(a.threads)] {
			if th != nil {
				t.Fatalf("lane %d: the kept thread list still names a thread", i)
			}
		}
	}

	before := make([][4]uintptr, lanes)
	for i := range kept.kept {
		a := &kept.kept[i]
		before[i] = [4]uintptr{data(a.heap), data(a.ring), data(a.deferred), data(a.threads)}
	}
	k2 := arraysWorld(t, &kept, lanes, perLane, timers)
	for i, ln := range k2.Lanes() {
		got := [4]uintptr{data(ln.heap), data(ln.ring.buf), data(ln.deferred), data(ln.threads)}
		if got != before[i] {
			t.Errorf("lane %d of a same-shape world grew an array: %x, kept %x", i, got, before[i])
		}
	}

	// One more world, never reclaimed, whose first lane's heap outgrows
	// what is kept: the next kernel to take the arrays takes them back.
	big := arraysWorld(t, &kept, 1, perLane, arraysKeepMax/int(unsafe.Sizeof(event{}))+1)
	NewKernel().ConfigureLanes(1, 1, 10, &kept)
	if big.Lanes()[0].heap != nil {
		t.Error("a kernel's lanes kept their arrays after another kernel took them")
	}
	kept.Reclaim()
	if kept.kept[0].heap != nil {
		t.Error("a heap past arraysKeepMax was kept")
	}
}
