package armci

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// idleWorldAllocs is the host memory — bytes and heap objects — a
// one-Malloc, no-traffic world of the given size allocates over its whole
// life.
func idleWorldAllocs(t *testing.T, procs int) (bytes, objects uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := Run(Config{Procs: procs, ProcsPerNode: 16, AsyncThread: true}, func(th *sim.Thread, rt *Runtime) {
		rt.Malloc(th, 1024)
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestIdleWorldBytesScaleWithRanks: bringing a world up and running one
// collective Malloc must cost host memory in proportion to p (per-rank
// state is clique-sized), not p² (every rank holding a p-sized copy of the
// exchange, cache buckets or fence table — which doubling p multiplies by
// about 4).
func TestIdleWorldBytesScaleWithRanks(t *testing.T) {
	idleWorldAllocs(t, 64) // page in the code paths and the runtime's own pools
	small, _ := idleWorldAllocs(t, 512)
	big, _ := idleWorldAllocs(t, 1024)
	if ratio := float64(big) / float64(small); ratio >= 2.5 {
		t.Fatalf("idle world: %d B at p=512, %d B at p=1024 (%.2fx); want < 2.5x", small, big, ratio)
	}
}

// TestAllFenceVisitsDirtyTargetsOnly: the fence table holds the targets
// with outstanding writes and nothing else, so an AllFence with nothing
// outstanding has nothing to walk and allocates nothing, whatever p is;
// with writes outstanding it fences exactly their targets.
func TestAllFenceVisitsDirtyTargetsOnly(t *testing.T) {
	const procs = 256
	_, err := Run(Config{Procs: procs, ProcsPerNode: 16, AsyncThread: true}, func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 1024)
		if rt.Rank == 0 {
			idle := func(when string) {
				if len(rt.dirty) != 0 {
					t.Errorf("%s: fence table holds %d targets with nothing outstanding", when, len(rt.dirty))
				}
				if n := testing.AllocsPerRun(20, func() { rt.AllFence(th) }); n != 0 {
					t.Errorf("%s: idle AllFence allocates %v times", when, n)
				}
			}
			idle("before traffic")
			if rt.cons.tgt != nil || len(rt.cons.mr) != 0 {
				t.Error("a world without traffic allocated per-rank consistency status")
			}

			local := rt.LocalAlloc(th, 1024)
			targets := []int{200, 3, 77}
			for _, r := range targets {
				rt.NbPut(th, local, a.At(r), 256)
				rt.NbAcc(th, local, a.At(r), 32, 1.0)
			}
			if len(rt.dirty) != len(targets) {
				t.Errorf("fence table holds %d targets after writes to %d", len(rt.dirty), len(targets))
			}
			before := rt.Stats.Get("fence")
			rt.AllFence(th)
			if got := rt.Stats.Get("fence") - before; got != int64(len(targets)) {
				t.Errorf("AllFence fenced %d targets, want %d", got, len(targets))
			}
			idle("after traffic")
		}
		rt.Barrier(th)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIdleWorldObjectsPerRank bounds the heap objects one more rank of an
// asynchronous-progress world costs — two simulated threads, a PAMI
// client with two contexts, the ARMCI runtime and its share of one
// Malloc: 88.5 measured. A coroutine per thread costs about nine objects
// more than a goroutine and two channels did; the bound holds only
// because a context's dispatch table is an array rather than a map and
// the 14 protocol handlers are bound once per runtime, not per context
// (with the map and per-context handlers the figure is 116.8; the
// goroutine-and-channel threads with them read 98.5).
func TestIdleWorldObjectsPerRank(t *testing.T) {
	idleWorldAllocs(t, 64) // page in the code paths and the runtime's own pools
	_, small := idleWorldAllocs(t, 512)
	_, big := idleWorldAllocs(t, 1024)
	if perRank := float64(big-small) / 512; perRank > 94 {
		t.Fatalf("idle world: %d objects at p=512, %d at p=1024: %.1f per added rank, want <= 94",
			small, big, perRank)
	}
}
