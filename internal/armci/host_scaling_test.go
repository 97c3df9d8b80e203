package armci

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// idleWorldAllocs is the host memory — bytes and heap objects — a
// one-Malloc, no-traffic world of the given size allocates over its whole
// life. A cold world first empties the carrier pool, so that every thread
// that runs makes its coroutine, as in a fresh process; a warm one takes
// the carriers earlier runs pooled.
func idleWorldAllocs(t *testing.T, procs int, cold bool) (bytes, objects uint64) {
	t.Helper()
	if cold {
		sim.DrainCarrierPool()
	}
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
	idleWorldAllocs(t, 64, false) // page in the code paths and the runtime's own pools
	small, _ := idleWorldAllocs(t, 512, false)
	big, _ := idleWorldAllocs(t, 1024, false)
	if ratio := float64(big) / float64(small); ratio >= 2.5 {
		t.Fatalf("idle world: %d B at p=512, %d B at p=1024 (%.2fx); want < 2.5x", small, big, ratio)
	}
}

// dirtyTargets counts the clique-table records with writes outstanding,
// the targets AllFence visits, and fails t when the table's own count
// disagrees.
func dirtyTargets(t *testing.T, rt *Runtime) int {
	t.Helper()
	n := 0
	for pos := 0; pos < rt.peers.size(); pos++ {
		if p := rt.peers.at(pos); p.puts != 0 || p.ams != 0 {
			n++
		}
	}
	if n != rt.peers.dirty {
		t.Errorf("rank %d: %d records with writes outstanding, the table counts %d", rt.Rank, n, rt.peers.dirty)
	}
	return n
}

// pendingRequests counts the AM requests rt has in flight.
func pendingRequests(rt *Runtime) int {
	n := 0
	for _, p := range rt.pend {
		if p != nil {
			n++
		}
	}
	return n
}

// TestAllFenceVisitsDirtyTargetsOnly: a rank's fence and consistency state
// is its clique table, ζ records and never a p-sized vector. At p = 4096 a
// rank that puts to and accumulates into 3 targets across 2 allocations
// holds 3 records, a 2-column status row for each and no slice of length
// p; AllFence fences exactly those targets, and with nothing outstanding
// it has nothing to fence and allocates nothing.
func TestAllFenceVisitsDirtyTargetsOnly(t *testing.T) {
	const procs = 4096
	_, err := Run(Config{Procs: procs, ProcsPerNode: 16, AsyncThread: true}, func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 1024)
		b := rt.Malloc(th, 1024)
		if rt.Rank == 0 {
			idle := func(when string) {
				if n := dirtyTargets(t, rt); n != 0 {
					t.Errorf("%s: %d targets with writes outstanding, want none", when, n)
				}
				if n := testing.AllocsPerRun(20, func() { rt.AllFence(th) }); n != 0 {
					t.Errorf("%s: idle AllFence allocates %v times", when, n)
				}
			}
			idle("before traffic")
			if rt.peers.size() != 0 || rt.peers.cs != nil {
				t.Error("a rank without traffic holds clique records or status")
			}

			local := rt.LocalAlloc(th, 1024)
			targets := []int{4000, 3, 77}
			for i, r := range targets {
				alloc := []*Allocation{a, b}[i%2]
				rt.NbPut(th, local, alloc.At(r), 256)
				rt.NbAcc(th, local, b.At(r), 32, 1.0)
			}
			if n := dirtyTargets(t, rt); n != len(targets) {
				t.Errorf("%d targets with writes outstanding after writes to %d", n, len(targets))
			}
			if rt.peers.size() != len(targets) || len(rt.peers.more) != len(targets)-1 {
				t.Errorf("clique table holds %d records (%d past the first), want %d",
					rt.peers.size(), len(rt.peers.more), len(targets))
			}
			// A row per record: cs_tgt, then cs_mr for a and for b.
			if n := rt.peers.columns(); n != 3 || len(rt.peers.cs) != 3*len(targets) {
				t.Errorf("status holds %d bytes in %d columns, want a 3-column row per record", len(rt.peers.cs), n)
			}
			for i, r := range targets {
				pos := rt.peers.find(r)
				if pos != i || rt.peers.row(pos)[1+b.ID]&csWrite == 0 {
					t.Errorf("target %d: position %d, status row %v", r, pos, rt.peers.row(max(pos, 0)))
				}
			}
			if len(rt.peers.index) >= procs || cap(rt.peers.more) >= procs || cap(rt.peers.cs) >= procs {
				t.Error("clique table grew a p-sized slice")
			}
			before := rt.Stats.Get("fence")
			rt.AllFence(th)
			if got := rt.Stats.Get("fence") - before; got != int64(len(targets)) {
				t.Errorf("AllFence fenced %d targets, want %d", got, len(targets))
			}
			for pos := 0; pos < rt.peers.size(); pos++ {
				if slices.ContainsFunc(rt.peers.row(pos), func(s uint8) bool { return s != 0 }) {
					t.Errorf("AllFence left status at position %d", pos)
				}
			}
			idle("after traffic")
		}
		rt.Barrier(th)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeSize: a runtime is an element of a world-sized slice, so
// every byte it gains is p bytes of every world. The clique table took the
// place of two endpoint caches, the fence map and the consistency vectors
// without growing it (800 B); its first record, inline, then took the
// region-cache buckets and the suspect window and kept a peer's node
// instead of its two endpoints: 760 B on a 64-bit build.
func TestRuntimeSize(t *testing.T) {
	if size := unsafe.Sizeof(Runtime{}); size > 760 {
		t.Fatalf("Runtime is %d bytes, want <= 760", size)
	}
}

// TestIdleWorldObjectsPerRank bounds the heap objects one more rank of an
// asynchronous-progress world costs a cold process — two simulated
// threads, a PAMI client with two contexts, the ARMCI runtime and its
// share of one Malloc: 14.7 measured (21.6 while what a rank owns once was made on the
// heap; 22.6 while its protocol counters were a bag with a slice of its
// own; 36.4 while the progress thread, which never has work here, was a
// coroutine too; 88.5 before bring-up stopped allocating what every rank
// shares; the bound is the measurement plus 5 %). The budget, per rank,
// from a rate-1 heap profile:
//
//	11.4  the main thread's carrier: iter.Pull 6, its yield 1, the
//	      carrier's method value 1, and three or four one-byte flags Pull
//	      captures, which MemStats counts and the profile folds into
//	      16-byte blocks; the progress thread's lane makes its idle passes
//	      (sim.Thread.SetIdlePass), so it never gets one
//	 0.6  runtime.malg: coroutine descriptors not recycled
//
// (A warm process makes neither: TestIdleWorldWarmObjectsPerRank.)
//
//	1.0  the Malloc'd block's heap array
//	1.7  amortised lane arrays: thread chunks, event heap, deferred log
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
	t.Cleanup(func() { sim.DrainCarrierPool() })
	idleWorldAllocs(t, 64, true) // page in the code paths and the runtime's own pools
	_, small := idleWorldAllocs(t, 512, true)
	_, big := idleWorldAllocs(t, 1024, true)
	perRank := float64(big-small) / 512
	t.Logf("idle world: %d objects at p=512, %d at p=1024: %.1f per added rank, cold", small, big, perRank)
	if perRank > 15.4 {
		t.Fatalf("idle world: %.1f objects per added rank, cold, want <= 15.4", perRank)
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
