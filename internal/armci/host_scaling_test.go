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
// Malloc: 14.7 measured (21.6 while what a rank owns once was made on the
// heap; 22.6 while its protocol counters were a bag with a slice of its
// own; 36.4 while the progress thread, which never has work here, was a
// coroutine too; 88.5 before bring-up stopped allocating what every rank
// shares; the bound is the measurement plus 5 %). The budget, per rank,
// from a rate-1 heap profile:
//
//	11.4  the main thread's coroutine: iter.Pull 6, its yield 1, the
//	      body's method value 1, and three or four one-byte flags Pull
//	      captures, which MemStats counts and the profile folds into
//	      16-byte blocks; the progress thread's lane makes its idle passes
//	      (sim.Thread.SetIdlePass), so it never gets one
//	 0.6  runtime.malg: coroutine descriptors not recycled
//	 1.0  the Malloc'd block's heap array
//	 1.7  amortised lane arrays: thread chunks, event heap, deferred log
//
// Not one of them is the Runtime, the Client, a Context, a Space, a
// Thread, a map nobody wrote to, a handler, a name, an allocation-table
// entry, a memory region, a seed block, an allocation list, a context's
// first queued item or waiters, or the barrier's release event: those are
// elements of world-sized slices, fields of them, or never made
// (DESIGN.md, "Built once per world, instantiated per rank").
func TestIdleWorldObjectsPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates: a rank reads about one object more")
	}
	idleWorldAllocs(t, 64) // page in the code paths and the runtime's own pools
	_, small := idleWorldAllocs(t, 512)
	_, big := idleWorldAllocs(t, 1024)
	perRank := float64(big-small) / 512
	t.Logf("idle world: %d objects at p=512, %d at p=1024: %.1f per added rank", small, big, perRank)
	if perRank > 15.4 {
		t.Fatalf("idle world: %.1f objects per added rank, want <= 15.4", perRank)
	}
}

// TestExchangeReplayHeadsBudget: an exchange larger than the region
// cache's capacity costs a rank O(cap + blocks) steps, not one per peer.
// Every rank of a p = 16384 world (four times the default capacity) makes
// two collective Mallocs: the first fills the cache and slides the rest of
// its window past it, the second evicts the first's survivors one by one
// between slides. After each, a rank's replay has taken at most
// cap + blocks + 2 steps (an insert-per-peer replay takes p − 1).
func TestExchangeReplayHeadsBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("a 16384-rank world; make check runs it without -race")
	}
	const procs = 16384
	heads := make([][2]int, procs)
	blocks := make([][2]int, procs)
	w, err := Run(Config{Procs: procs, ProcsPerNode: 16, AsyncThread: true}, func(th *sim.Thread, rt *Runtime) {
		for i := range heads[rt.Rank] {
			rt.Malloc(th, 1024)
			heads[rt.Rank][i] = rt.regions.heads
			blocks[rt.Rank][i] = len(rt.regions.blocks)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	capacity := w.Cfg.RegionCacheCap
	if capacity >= procs-1 {
		t.Fatalf("RegionCacheCap %d: the exchanges fit, nothing replays", capacity)
	}
	most := 0
	for r := range heads {
		for i, h := range heads[r] {
			most = max(most, h)
			if h > capacity+blocks[r][i]+2 || h == 0 {
				t.Fatalf("rank %d, Malloc %d: %d replay steps, want 1..%d", r, i, h, capacity+blocks[r][i]+2)
			}
		}
	}
	t.Logf("p=%d, cap %d: at most %d replay steps per exchange", procs, capacity, most)
}
