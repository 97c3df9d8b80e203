package sim

import (
	"reflect"
	"testing"
	"unsafe"
)

// arraysWorld runs a world of lanes lanes on kept: on each, timers timers
// fill the event heap and perLane threads sleep, yield (the ring) and log
// a cross-lane operation (the boundary log).
func arraysWorld(t *testing.T, kept *KeptLanes, lanes, perLane, timers int) *Kernel {
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

// TestLaneArraysReclaimClearsAndReuses: a finished world's lanes stay its
// own until the next kernel takes them; then each is reset in place — its
// arrays empty but kept, its threads zeroed — and a second world of the
// same shape runs on exactly those lanes, arrays and threads without
// making one. An array past arraysKeepMax is dropped, and a kernel that
// did not finish gives nothing back. Under the race detector the lanes and
// threads are poisoned instead, and only the arrays move on.
func TestLaneArraysReclaimClearsAndReuses(t *testing.T) {
	const lanes, perLane, timers = 3, 8, 40
	var kept KeptLanes
	k := arraysWorld(t, &kept, lanes, perLane, timers)
	old := append([]*Lane(nil), k.Lanes()...)
	var threads [][]*Thread
	for _, ln := range old {
		threads = append(threads, append([]*Thread(nil), ln.threads...))
	}
	if k.Lanes()[0].fired == 0 || len(k.Lanes()[0].threads) != perLane {
		t.Fatal("a finished world's lanes were reset before the next kernel took them")
	}
	kept.GiveBack()
	if raceEnabled {
		for i, ln := range old {
			if ln.idx != -1 || threads[i][0].index != -1 {
				t.Errorf("lane %d: a given-back lane or thread is not poisoned", i)
			}
		}
	}
	if len(kept.lanes) != lanes {
		t.Fatalf("%d lanes kept, want %d", len(kept.lanes), lanes)
	}
	for i, ln := range kept.lanes {
		if len(ln.heap) != 0 || len(ln.deferred) != 0 || len(ln.threads) != 0 || ln.ring.n != 0 {
			t.Errorf("lane %d: arrays kept non-empty", i)
		}
		if cap(ln.heap) == 0 || len(ln.ring.buf) == 0 || cap(ln.deferred) == 0 || cap(ln.threads) < perLane {
			t.Errorf("lane %d: an array the world grew was not kept", i)
		}
		for _, e := range append(ln.heap[:cap(ln.heap)], ln.ring.buf...) {
			if e.a != nil {
				t.Fatalf("lane %d: a kept event still holds its action", i)
			}
		}
		for _, th := range ln.threads[:cap(ln.threads)] {
			if th != nil && (raceEnabled || !reflect.ValueOf(th).Elem().IsZero()) {
				t.Fatalf("lane %d: a kept thread is not reset", i)
			}
		}
	}

	before := make([][4]uintptr, lanes)
	for i, ln := range kept.lanes {
		before[i] = [4]uintptr{data(ln.heap), data(ln.ring.buf), data(ln.deferred), data(ln.threads)}
	}
	k2 := arraysWorld(t, &kept, lanes, perLane, timers)
	for i, ln := range k2.Lanes() {
		got := [4]uintptr{data(ln.heap), data(ln.ring.buf), data(ln.deferred), data(ln.threads)}
		if got != before[i] {
			t.Errorf("lane %d of a same-shape world grew an array: %x, kept %x", i, got, before[i])
		}
		if raceEnabled {
			continue
		}
		if ln != old[i] {
			t.Errorf("lane %d of a same-shape world is a new Lane", i)
		}
		for j, th := range ln.threads {
			if th != threads[i][j] {
				t.Fatalf("lane %d: thread %d of a same-shape world is a new Thread", i, j)
			}
		}
	}

	// One more world, whose first lane's heap outgrows what is kept: the
	// next kernel to take the lanes does not keep that heap.
	arraysWorld(t, &kept, 1, perLane, arraysKeepMax/int(unsafe.Sizeof(event{}))+1)
	NewKernel().ConfigureLanes(1, 1, 10, &kept)
	if kept.lanes[0].heap != nil {
		t.Error("a heap past arraysKeepMax was kept")
	}
	// That kernel never ran: the next one makes its lanes anew.
	kept.GiveBack()
	if kept.lanes != nil {
		t.Error("a kernel that did not finish gave its lanes back")
	}
}
