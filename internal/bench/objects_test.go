package bench

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/armci"
	"repro/internal/nwchem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// hammerCost runs one whole fig9 simulation — the hammer body,
// asynchronous progress, rank 0 computing, two fetch-and-adds per worker:
// the amo_storm benchmark workload's world — and returns what it cost the
// host: heap objects allocated, and coroutine switches into simulated
// threads.
// reg is the world's registry (Config.Obs), nil for none. A cold run (eng
// nil) first empties the carrier pool, so that every thread that runs
// makes its coroutine, as in a fresh process, and its world recycles
// through a shelf of its own. A warm one runs through eng, as the
// benchmark runs its worlds: it takes the carriers earlier runs pooled,
// and the flights earlier runs left on the engine's shelf.
func hammerCost(procs int, reg *obs.Registry, eng *sweep.Engine) (objects, switches uint64) {
	if eng == nil {
		sim.DrainCarrierPool()
	}
	cfg := armci.Config{Procs: procs, ProcsPerNode: 16, AsyncThread: true, Obs: reg}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if eng == nil {
		w, _, _ := hammer(cfg, 2, true, false)
		switches = w.K.Switches()
	} else {
		// The task reads its world: the engine gives it back as the task
		// returns.
		switches = sweep.Map(eng, 1, func(c *sweep.Ctx, _ int) uint64 {
			cfg := c.Cfg(cfg)
			cfg.Obs = reg // the registry the cold run records into, not a child merged away
			w, _, _ := hammer(cfg, 2, true, false)
			return w.K.Switches()
		})[0]
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, switches
}

// TestFig9ObjectsPerRank is the ROADMAP's per-rank budget on the workload
// it names: one more rank of a fig9 world — bring-up, one collective
// Malloc, three fetch-and-add round trips served by rank 0's progress
// thread, finalize — costs a cold process at most 15.6 heap objects, the
// measured 14.9 plus 5 % (15.0 since a rank's heap is a class buffer; 28.4 while what a rank owns once — its first allocation-table
// entries, rmw slot, regions, queued work item, second waiter, allocation
// list and seed block — and its barrier release func were heap objects;
// 34.4 until a healthy run recycled its active messages; 60 while every
// progress thread was a coroutine; 100 until a message in flight became
// one value). Per rank, from a rate-1 heap profile:
//
//	8.0  the main thread's carrier: iter.Pull 6, its yield 1, the
//	     carrier's method value 1 (none warm: TestFig9WarmObjectsPerRank)
//	1.0  the rank's heap, reserve and Malloc'd block in one class
//	     buffer (none warm: the engine's shelf keeps it)
//	0.6  runtime.malg: coroutine stacks not recycled (none warm)
//	0.1  AM flights, cut 16 to a chunk, and each lane's list of them
//	     (none warm: the engine's shelf holds them)
//	1.1  lane arrays: event heap, ring, boundary log, thread list (none
//	     warm: the shelf keeps them, TestSecondWorldLaneArraysAllocFree)
//	0.3  per lane: the Lane and its thread chunks (none warm: the
//	     shelf keeps them, TestSecondWorldRankSlabsAllocFree)
//	0.1  routes (none warm at the same shape: the shelf keeps the torus)
//
// and ≈ 3 one-byte flags iter.Pull captures, which MemStats counts and the
// profile folds into 16-byte blocks. DESIGN.md's per-rank object table is
// the same list; TestIdleWorldObjectsPerRank (internal/armci) bounds the
// part that is bring-up alone.
func TestFig9ObjectsPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("armci retires operation slots under the race detector instead of reusing them")
	}
	t.Cleanup(func() { sim.DrainCarrierPool() })
	hammerCost(64, nil, nil) // page in the code paths and the runtime's own pools
	small, _ := hammerCost(512, nil, nil)
	big, _ := hammerCost(1024, nil, nil)
	perRank := float64(big-small) / 512
	t.Logf("fig9: %d objects at p=512, %d at p=1024: %.1f per added rank, cold", small, big, perRank)
	if perRank > 15.6 {
		t.Fatalf("fig9: %.1f objects per added rank, cold, want <= 15.6", perRank)
	}
}

// TestFig9WarmObjectsPerRank is TestFig9ObjectsPerRank in a warm process,
// whose worlds run through one engine, as the benchmark's do: their
// threads run on the carriers of earlier runs (sim's carrier pool), and
// their runtimes, clients, contexts, spaces, lanes, threads, flights,
// ranks' heaps and, at the same shape, their torus are the ones earlier
// runs left on the engine's shelf, all primed here by a p = 1024 run;
// then the cold test's 64, 512, 1024. No coroutine, stack, flight, heap,
// rank or lane slab is made, so one more rank costs at most 0.144
// objects, the measured 0.137 plus 5 % (0.45 while each world made its
// Lanes and thread chunks, 2.8 while it also grew its own lane arrays and
// rank heaps): what is left is the routes of a torus whose shape the
// shelf did not keep (p = 1024 after p = 512), made as the world's
// messages first take them. The collector may run when it likes: nothing
// it empties is what a run recycles.
func TestFig9WarmObjectsPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("armci retires operation slots under the race detector instead of reusing them")
	}
	t.Cleanup(func() { sim.DrainCarrierPool() })
	eng := sweep.NewSharded(1, 0, nil)
	hammerCost(1024, nil, eng)
	hammerCost(64, nil, eng)
	small, _ := hammerCost(512, nil, eng)
	big, _ := hammerCost(1024, nil, eng)
	perRank := float64(big-small) / 512
	t.Logf("fig9: %d objects at p=512, %d at p=1024: %.3f per added rank, warm", small, big, perRank)
	if perRank > 0.144 {
		t.Fatalf("fig9: %.3f objects per added rank, warm, want <= 0.144", perRank)
	}
}

// TestFig9MetricsObjectsPerRank is the same budget for a world that
// records metrics into a metrics-only registry, as `armci-bench -metrics`
// makes one: at most 17.3 heap objects per added rank, the measured 16.5
// plus 5 %. It read 75.0 while every per-rank series was a named handle
// made by name in its lane's registry and re-made by name in its parent's
// at the merge, 225.3 while every rank also formatted and looked up its
// own 35 ARMCI operation handles and four per-context-index histograms,
// and 19.1 while a rank's series were members copied into label-indexed
// families. A layer's per-rank series are read from its slab now, which
// costs a rank nothing. What metrics add, per rank, from a rate-1 heap
// profile:
//
//	1.0  the lane registries' name maps growing (its 33 counters and 16
//	     histograms)
//	0.5  the handle chunks: counters, histograms and bucket arrays
//	0.2  the rest: the lane registries themselves and, once per world,
//	     the family registrations with their accessors and the merge's
//	     maps
func TestFig9MetricsObjectsPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("armci retires operation slots under the race detector instead of reusing them")
	}
	t.Cleanup(func() { sim.DrainCarrierPool() })
	hammerCost(64, metrics(), nil)
	small, _ := hammerCost(512, metrics(), nil)
	big, _ := hammerCost(1024, metrics(), nil)
	perRank := float64(big-small) / 512
	t.Logf("fig9 with metrics: %d objects at p=512, %d at p=1024: %.1f per added rank, cold", small, big, perRank)
	if perRank > 17.3 {
		t.Fatalf("fig9 with metrics: %.1f objects per added rank, cold, want <= 17.3", perRank)
	}
}

// metrics is a metrics-only registry, as `armci-bench -metrics` makes one.
func metrics() *obs.Registry { return obs.New(obs.WithTrackCap(0)) }

// TestFig9MetricsWarmObjectsPerRank is TestFig9MetricsObjectsPerRank in a
// warm process, measured as TestFig9WarmObjectsPerRank is: at most 2.11
// objects per added rank, the measured 2.01 plus 5 % (4.3 while each world
// grew its own lane arrays and rank heaps, 7.0 with families of members).
func TestFig9MetricsWarmObjectsPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("armci retires operation slots under the race detector instead of reusing them")
	}
	t.Cleanup(func() { sim.DrainCarrierPool() })
	eng := sweep.NewSharded(1, 0, nil)
	hammerCost(1024, metrics(), eng)
	hammerCost(64, metrics(), eng)
	small, _ := hammerCost(512, metrics(), eng)
	big, _ := hammerCost(1024, metrics(), eng)
	perRank := float64(big-small) / 512
	t.Logf("fig9 with metrics: %d objects at p=512, %d at p=1024: %.2f per added rank, warm", small, big, perRank)
	if perRank > 2.11 {
		t.Fatalf("fig9 with metrics: %.2f objects per added rank, warm, want <= 2.11", perRank)
	}
}

// TestFig9SwitchesPerRank bounds the other host cost of a rank on the same
// workload: how often the lane leaves its event loop for a coroutine. A
// thread is switched in to run, not to be told that nothing happened —
// a sleep nothing interrupts ends where it began (Thread.Sleep), a
// progress thread has no coroutine at all, its lane running the progress
// engine's steps for it (Kernel.SpawnSteps), and a rank waiting in the
// engine is switched back in once, when its wait ends (Thread.RunSteps) —
// which took one more rank from 36.0 switches to 28.0, 23.0, then 16.0.
// The count is a function of the simulated schedule alone, so the bound
// is exact at any worker count.
func TestFig9SwitchesPerRank(t *testing.T) {
	eng := sweep.NewSharded(1, 0, nil)
	_, small := hammerCost(512, nil, eng)
	_, big := hammerCost(1024, nil, eng)
	perRank := float64(big-small) / 512
	t.Logf("fig9: %d switches at p=512, %d at p=1024: %.1f per added rank", small, big, perRank)
	if perRank > 16.1 {
		t.Fatalf("fig9: %.1f switches per added rank, want <= 16.1", perRank)
	}
}

// TestProgressSwitchesPerRank: no switch enters an asynchronous progress
// thread, on fig9 at p = 1024 or on a quick-scale SCF at 64 ranks — every
// trip of its loop, every item it serves and every wake-up it pays is a
// step its lane runs (pami.Context.ProgressSteps).
func TestProgressSwitchesPerRank(t *testing.T) {
	w, _, _ := hammer(armci.Config{Procs: 1024, ProcsPerNode: 16, AsyncThread: true}, 2, true, false)
	fig9, all := w.K.SwitchesInto(obs.TrackProgress), w.K.Switches()
	shelf := armci.NewShelf()
	nwchem.Experiment(armci.Config{Procs: 64, ProcsPerNode: 16, AsyncThread: true, Shelf: shelf}, Quick.SCF)
	k := shelf.World().K
	scf, scfAll := k.SwitchesInto(obs.TrackProgress), k.Switches()
	t.Logf("fig9 p=1024: %d of %d switches into progress threads; scf p=64: %d of %d", fig9, all, scf, scfAll)
	if fig9 != 0 || scf != 0 {
		t.Fatalf("%d switches into fig9's progress threads and %d into scf's, want none", fig9, scf)
	}
	if all == 0 || scfAll == 0 {
		t.Fatal("no switch counted at all: the count sees nothing")
	}
}

// TestSecondWorldLaneArraysAllocFree: the second of two same-shape fig9
// worlds on one engine makes no lane array — no event heap, zero-delay
// ring, boundary log or thread list grows — because the first left its
// lanes' arrays on the engine's shelf (sim.KeptLanes). Counted from a
// rate-1 heap profile by the function that grew the array.
func TestSecondWorldLaneArraysAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("armci retires operation slots under the race detector instead of reusing them")
	}
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	t.Cleanup(func() { runtime.MemProfileRate = rate })
	eng := sweep.NewSharded(1, 0, nil)
	world := func() int64 {
		before := siteObjects(laneArraySites)
		hammerCost(512, nil, eng)
		return siteObjects(laneArraySites) - before
	}
	first, second := world(), world()
	t.Logf("fig9 p=512: %d lane-array objects on a fresh engine, %d on the same engine after it", first, second)
	if first == 0 {
		t.Fatal("the first world grew no lane array: the count sees nothing")
	}
	if second != 0 {
		t.Fatalf("the second same-shape world made %d lane-array objects, want 0", second)
	}
}

// TestChaosSecondWorldAllocBudget: a chaos world lives by the healthy
// world's lifetime rule — flights, payloads, operation and rmw slots go
// back once their last event has fired, dedup windows hold only what is
// outstanding and keep their room — so the second of two same-shape chaos
// worlds on one engine (the chaos sweep's p = 32 point, and p = 64, 10
// rounds a rank) costs the host what its shelf does not keep: the
// injector, first sights of a payload class. At p = 32 it made 3 786
// objects when a chaos run recycled nothing; the bound is a tenth of
// that, which leaves room for the objects the Go runtime itself makes
// during a GC, which MemStats.Mallocs counts too. At p = 64 it made 509
// while the payloads of the flights the network dropped were lost with
// them and a reset operation slot lost its waiter list's room; now 193,
// most of it payload buffers a lane takes from the stocks a batch at a
// time, which a third world no longer makes (70); the bound is 250.
func TestChaosSecondWorldAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector slots are retired and slabs poisoned, never reused")
	}
	for _, c := range []struct {
		procs int
		bound uint64
	}{{32, 378}, {64, 250}} {
		eng := sweep.NewSharded(1, 0, nil)
		world := func() uint64 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			ChaosRun(context.Background(), eng, c.procs, 4, 10, 42)
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs
		}
		first, second := world(), world()
		t.Logf("chaos p=%d: %d objects on a fresh engine, %d on the same engine after it", c.procs, first, second)
		if second > c.bound {
			t.Errorf("the second same-shape chaos world at p=%d made %d objects, want <= %d", c.procs, second, c.bound)
		}
	}
}

// laneArraySites are the functions that grow a lane's arrays: where an
// allocation's innermost frame of this module is one of them, it is a
// lane array (spawnOn's own is the thread list).
var laneArraySites = []string{
	"repro/internal/sim.(*Lane).heapPush",
	"repro/internal/sim.(*fifoRing).grow",
	"repro/internal/sim.(*Lane).logDeferred",
	"repro/internal/sim.(*Kernel).spawnOn",
}

// TestSecondWorldRankSlabsAllocFree: the second of two same-shape SCF
// worlds on one engine makes no rank or lane slab — no runtime, client,
// context, space, lane or thread — and grows no table a rank grew in the
// first: no clique record, index, status matrix or bucket, no progress
// queue, no pending-request or operation slot, no region, allocation or
// seed-block list, no heap table. The first world's were reset in place
// on the engine's shelf as its task returned (armci.Shelf.GiveBack).
// Counted from a rate-1 heap profile by the function that made the object.
func TestSecondWorldRankSlabsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector a given-back world's slabs are poisoned, never reused")
	}
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	t.Cleanup(func() { runtime.MemProfileRate = rate })
	eng := sweep.NewSharded(1, 0, nil)
	world := func() int64 {
		before := siteObjects(rankSlabSites)
		sweep.Map(eng, 1, func(c *sweep.Ctx, _ int) nwchem.Result {
			return nwchem.Experiment(c.Cfg(armci.Config{Procs: 64, ProcsPerNode: 16, AsyncThread: true}), Quick.SCF)
		})
		return siteObjects(rankSlabSites) - before
	}
	first, second := world(), world()
	t.Logf("scf p=64: %d rank-slab objects on a fresh engine, %d on the same engine after it", first, second)
	if first == 0 {
		t.Fatal("the first world made no rank slab: the count sees nothing")
	}
	if second != 0 {
		t.Fatalf("the second same-shape world made %d rank-slab objects, want 0", second)
	}
}

// rankSlabSites are the functions that make a world's rank and lane slabs
// and grow the tables a rank keeps (a generic function's name ends in
// "[...]").
var rankSlabSites = []string{
	"repro/internal/armci.(*Shelf).lend",
	"repro/internal/pami.slab[...]",
	"repro/internal/sim.(*KeptLanes).take",
	"repro/internal/sim.(*Lane).newThread",
	"repro/internal/armci.(*clique).record",
	"repro/internal/armci.(*clique).reindex",
	"repro/internal/armci.(*clique).statusAt",
	"repro/internal/armci.(*clique).bucketRoom",
	"repro/internal/sim.(*FIFO[...]).Push",
	"repro/internal/armci.(*Runtime).newPend",
	"repro/internal/armci.(*Runtime).growPend",
	"repro/internal/armci.(*Runtime).takeSlot",
	"repro/internal/armci.(*Runtime).Track",
	"repro/internal/armci.(*Runtime).MallocErr",
	"repro/internal/armci.cacheView.insertExchange",
	"repro/internal/pami.(*Client).RegisterMemory",
	"repro/internal/mem.(*Space).commit",
	"repro/internal/mem.(*Space).insertFree",
}

// siteObjects is how many objects the heap profile holds whose innermost
// frame of this module is one of sites.
func siteObjects(sites []string) int64 {
	for range 3 {
		runtime.GC() // the profile is published up to two cycles late
	}
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	var total int64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for more := true; more; {
			var fr runtime.Frame
			fr, more = frames.Next()
			if strings.HasPrefix(fr.Function, "repro/") {
				if slices.Contains(sites, fr.Function) {
					total += r.AllocObjects
				}
				break
			}
		}
	}
	return total
}
