package bench

import (
	"runtime"
	"testing"

	"repro/internal/armci"
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
	var w *armci.World
	if eng == nil {
		w, _, _ = hammer(cfg, 2, true, false)
	} else {
		sweep.Map(eng, 1, func(c *sweep.Ctx, _ int) int {
			cfg := c.Cfg(cfg)
			cfg.Obs = reg // the registry the cold run records into, not a child merged away
			w, _, _ = hammer(cfg, 2, true, false)
			return 0
		})
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, w.K.Switches()
}

// TestFig9ObjectsPerRank is the ROADMAP's per-rank budget on the workload
// it names: one more rank of a fig9 world — bring-up, one collective
// Malloc, three fetch-and-add round trips served by rank 0's progress
// thread, finalize — costs a cold process at most 15.6 heap objects, the
// measured 14.9 plus 5 % (28.4 while what a rank owns once — its first allocation-table
// entries, rmw slot, regions, queued work item, second waiter, allocation
// list and seed block — and its barrier release func were heap objects;
// 34.4 until a healthy run recycled its active messages; 60 while every
// progress thread was a coroutine; 100 until a message in flight became
// one value). Per rank, from a rate-1 heap profile:
//
//	8.0  the main thread's carrier: iter.Pull 6, its yield 1, the
//	     carrier's method value 1 (none warm: TestFig9WarmObjectsPerRank)
//	1.0  the Malloc'd block's heap array
//	0.6  runtime.malg: coroutine stacks not recycled (none warm)
//	0.1  AM flights, cut 16 to a chunk, and each lane's list of them
//	     (none warm: the engine's shelf holds them)
//	1.6  amortised lane arrays, routes and per-world tables
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
// threads run on the carriers of earlier runs (sim's carrier pool) and
// their flights are the ones earlier runs left on the engine's shelf, both
// primed here by a p = 1024 run; then the cold test's 64, 512, 1024. No
// coroutine, no stack and no flight is made, so one more rank costs at
// most 2.9 objects, the measured 2.8 plus 5 %. The collector may run when
// it likes: nothing it empties is what a run recycles.
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
	t.Logf("fig9: %d objects at p=512, %d at p=1024: %.1f per added rank, warm", small, big, perRank)
	if perRank > 2.9 {
		t.Fatalf("fig9: %.1f objects per added rank, warm, want <= 2.9", perRank)
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
// warm process, measured as TestFig9WarmObjectsPerRank is: at most 4.5
// objects per added rank, the measured 4.3 plus 5 % (7.0 with families
// of members).
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
	t.Logf("fig9 with metrics: %d objects at p=512, %d at p=1024: %.1f per added rank, warm", small, big, perRank)
	if perRank > 4.5 {
		t.Fatalf("fig9 with metrics: %.1f objects per added rank, warm, want <= 4.5", perRank)
	}
}

// TestFig9SwitchesPerRank bounds the other host cost of a rank on the same
// workload: how often the lane leaves its event loop for a coroutine. A
// thread is switched in to run, not to be told that nothing happened —
// a sleep nothing interrupts ends where it began (Thread.Sleep), a
// progress thread's wake-up latency is started by its lane
// (Thread.ParkThenSleep), and a progress thread with nothing to serve is
// served by its lane (Thread.SetIdlePass) — which took one more rank from
// 36.0 switches to 28.0, then 23.0. The count is a function of the
// simulated schedule alone, so the bound is exact at any worker count.
func TestFig9SwitchesPerRank(t *testing.T) {
	eng := sweep.NewSharded(1, 0, nil)
	_, small := hammerCost(512, nil, eng)
	_, big := hammerCost(1024, nil, eng)
	perRank := float64(big-small) / 512
	t.Logf("fig9: %d switches at p=512, %d at p=1024: %.1f per added rank", small, big, perRank)
	if perRank > 24 {
		t.Fatalf("fig9: %.1f switches per added rank, want <= 24", perRank)
	}
}
