package armci

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// keptFields lists, per element type a shelf keeps, the fields a reset
// may leave non-zero: the room a world grew, for the next world to use.
// Every other field of a kept element must read zero once its world is
// given back, so that a field added later cannot carry a world's state
// into the next one unless it is listed here. A kept slice must hold only
// zero elements within its length; a kept pointer is a free list.
var keptFields = map[string][]string{
	"Runtime": {"peers.first.bucket", "peers.more", "peers.index", "peers.cs", "peers.slab",
		"regions.blocks", "allocs", "pend", "pendFree", "pendChunk", "slotFree", "slotChunk", "implicit"},
	"Client":  {"regions", "spare", "rmwPend", "rmwFree"},
	"Context": {"queue.items", "waiters"},
	"Space":   {"free", "allocs"},
	"Lane":    {"heap", "ring.buf", "deferred", "threads", "slab"},
	"Thread":  nil,
	"peer":    {"bucket"}, // a record past the clique's length keeps its bucket's room
}

// checkReset fails t for every field of v, a kept element of type name,
// that is neither zero nor listed in keptFields.
func checkReset(t *testing.T, name string, i int, v reflect.Value) {
	t.Helper()
	kept := keptFields[name]
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		for f := 0; f < v.NumField(); f++ {
			fv, p := v.Field(f), path+v.Type().Field(f).Name
			switch {
			case contains(kept, p):
				if fv.Kind() == reflect.Slice {
					for j := 0; j < fv.Len(); j++ {
						if !fv.Index(j).IsZero() {
							t.Errorf("%s %d: kept %s holds element %d of its world", name, i, p, j)
						}
					}
				}
			case hasPrefix(kept, p+"."):
				walk(fv, p+".")
			case !fv.IsZero():
				t.Errorf("%s %d: field %s still holds its world's state", name, i, p)
			}
		}
	}
	walk(v, "")
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

func hasPrefix(list []string, p string) bool {
	for _, x := range list {
		if strings.HasPrefix(x, p) {
			return true
		}
	}
	return false
}

// slabOf reads a shelf's unexported slab field, through every named field
// in turn.
func slabOf(v reflect.Value, names ...string) reflect.Value {
	for _, n := range names {
		v = reflect.Indirect(v).FieldByName(n)
	}
	return v
}

// TestGivenBackWorldIsReset: once a world is given back to its shelf, every
// Runtime, Client, Context, Space, Lane and Thread the shelf keeps reads
// zero but for the room it grew (keptFields), walked by reflection, as do
// the records past each clique's length and the free pending-request and
// operation slots. The world exercises what a rank grows: clique records
// past the first chunk, status columns for several allocations,
// region-cache buckets, pending requests (AM misses, fallback puts under a
// region budget), operation slots and implicit handles, read-modify-writes
// and mutexes, progress queues with work waiting.
func TestGivenBackWorldIsReset(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector a given-back world is poisoned and dropped, not reset")
	}
	shelf := NewShelf()
	const procs = 48
	_, err := Run(Config{Procs: procs, ProcsPerNode: 4, AsyncThread: true, MaxRegions: 3, Shelf: shelf},
		func(th *sim.Thread, rt *Runtime) {
			rt.CreateMutexes(th, 2)
			a, b := rt.Malloc(th, 512), rt.Malloc(th, 256)
			local := rt.LocalAlloc(th, 512)
			c := rt.Malloc(th, 128) // past MaxRegions: its traffic takes the AM path
			for i := 1; i < procs; i++ {
				r := (rt.Rank + i) % procs
				rt.Track(rt.NbPut(th, local, a.At(r), 64))
				rt.Get(th, b.At(r), local, 32)
				rt.Acc(th, local, c.At(r), 16, 1)
				rt.FetchAdd(th, a.At(r), 1)
			}
			rt.Lock(th, rt.Rank%2)
			rt.Unlock(th, rt.Rank%2)
			rt.WaitAll(th)
			rt.AllFence(th)
			rt.Free(th, b)
			rt.Barrier(th)
			rt.DestroyMutexes(th)
		})
	if err != nil {
		t.Fatal(err)
	}
	if shelf.runtimes[0].peers.size() < 2*chunkLen || len(shelf.runtimes[0].pend) == 0 {
		t.Fatal("the world grew too little to check its reset")
	}
	shelf.GiveBack()

	for i := range shelf.runtimes {
		rt := &shelf.runtimes[i]
		checkReset(t, "Runtime", i, reflect.ValueOf(rt).Elem())
		for j, p := range rt.peers.more[:cap(rt.peers.more)] {
			checkReset(t, "peer", j, reflect.ValueOf(&p).Elem())
		}
		for p := rt.pendFree; p != nil; p = p.next {
			if *p != (pendReq{next: p.next}) {
				t.Fatalf("runtime %d: a free pending request holds its world's state", i)
			}
		}
		for s := rt.slotFree; s != nil; s = s.next {
			if s.rt != rt || s.comps != nil || !reflect.ValueOf(&s.comp).Elem().IsZero() || !reflect.ValueOf(&s.set).Elem().IsZero() {
				t.Fatalf("runtime %d: a free operation slot holds its world's state", i)
			}
		}
	}
	p := reflect.ValueOf(shelf.Shelf)
	for _, sl := range []struct{ field, name string }{{"clients", "Client"}, {"contexts", "Context"}, {"spaces", "Space"}} {
		v := slabOf(p, sl.field)
		if v.Len() < procs {
			t.Fatalf("the shelf kept %d of %d %ss", v.Len(), procs, sl.name)
		}
		for i := 0; i < v.Len(); i++ {
			checkReset(t, sl.name, i, v.Index(i))
		}
	}
	lanes := slabOf(p, "kept", "lanes")
	if lanes.Len() != procs/4 {
		t.Fatalf("the shelf kept %d lanes, want %d", lanes.Len(), procs/4)
	}
	threads := 0
	for i := 0; i < lanes.Len(); i++ {
		ln := lanes.Index(i).Elem()
		checkReset(t, "Lane", i, ln)
		list := ln.FieldByName("threads")
		list = list.Slice(0, list.Cap())
		for j := 0; j < list.Len(); j++ {
			if th := list.Index(j); !th.IsNil() {
				threads++
				checkReset(t, "Thread", j, th.Elem())
			}
		}
	}
	if threads != 2*procs {
		t.Errorf("the shelf kept %d threads, want the world's %d", threads, 2*procs)
	}
}

// TestGivenBackWorldIsPoisoned: under the race detector a world's
// runtimes, clients and contexts are poisoned when its shelf lends the
// next world, and never reused, so that a read of the world afterwards
// fails loudly instead of reading the next world's state.
func TestGivenBackWorldIsPoisoned(t *testing.T) {
	if !raceEnabled {
		t.Skip("only race builds poison a given-back world")
	}
	shelf := NewShelf()
	cfg := Config{Procs: 4, ProcsPerNode: 2, Shelf: shelf}
	first := MustRun(cfg, func(th *sim.Thread, rt *Runtime) { rt.Malloc(th, 64) })
	second := MustRun(cfg, func(th *sim.Thread, rt *Runtime) {})
	if &first.Runtimes[0] == &second.Runtimes[0] {
		t.Fatal("a race build reused a given-back world's runtimes")
	}
	for i := range first.Runtimes {
		if rt := &first.Runtimes[i]; rt.Rank != -1 || rt.W != nil || rt.C != nil {
			t.Fatalf("runtime %d of a given-back world is not poisoned", i)
		}
	}
	if c := first.M.Client(0); c != nil {
		t.Fatal("a given-back world still names its client")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a read of a given-back world's rank state did not panic")
		}
	}()
	_ = first.Runtimes[0].Space()
}
