package bench

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/armci"
	"repro/internal/obs"
	"repro/internal/sim"
)

// hammerCost runs one whole fig9 simulation — the hammer body,
// asynchronous progress, rank 0 computing, two fetch-and-adds per worker:
// the amo_storm benchmark workload's world — and returns what it cost the
// host: heap objects allocated, and coroutine switches into simulated
// threads.
// reg is the world's registry (Config.Obs), nil for none. A cold run
// first empties the carrier pool, so that every thread that runs makes
// its coroutine, as in a fresh process; a warm one takes the carriers
// earlier runs pooled.
func hammerCost(procs int, reg *obs.Registry, cold bool) (objects, switches uint64) {
	if cold {
		sim.DrainCarrierPool()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w, _, _ := hammer(armci.Config{Procs: procs, ProcsPerNode: 16, AsyncThread: true, Obs: reg}, 2, true, false)
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
//	0.6  the amFlight pool: the requests in flight to rank 0 at once
//	1.6  amortised lane arrays, routes and per-world tables
//
// and ≈ 3 one-byte flags iter.Pull captures, which MemStats counts and the
// profile folds into 16-byte blocks. DESIGN.md's per-rank object table is
// the same list; TestIdleWorldObjectsPerRank (internal/armci) bounds the
// part that is bring-up alone.
func TestFig9ObjectsPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of the recycled flights under the race detector")
	}
	t.Cleanup(func() { sim.DrainCarrierPool() })
	hammerCost(64, nil, true) // page in the code paths and the runtime's own pools
	small, _ := hammerCost(512, nil, true)
	big, _ := hammerCost(1024, nil, true)
	perRank := float64(big-small) / 512
	t.Logf("fig9: %d objects at p=512, %d at p=1024: %.1f per added rank, cold", small, big, perRank)
	if perRank > 15.6 {
		t.Fatalf("fig9: %.1f objects per added rank, cold, want <= 15.6", perRank)
	}
}

// TestFig9WarmObjectsPerRank is TestFig9ObjectsPerRank in a warm process,
// whose threads run on the carriers of earlier runs (sim's carrier pool,
// primed here by a p = 1024 run; then the cold test's 64, 512, 1024):
// no coroutine and no stack is made, so one more rank costs at most 2.9
// objects, the measured 2.8 plus 5 %. The collector runs only where
// hammerCost forces it: a background GC that lands in a run's bring-up
// drops the AM flights the previous run pooled, and with a metrics
// registry one did so in about one run in six, some 500 objects more.
func TestFig9WarmObjectsPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of the recycled flights under the race detector")
	}
	t.Cleanup(func() { sim.DrainCarrierPool() })
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	hammerCost(1024, nil, false)
	hammerCost(64, nil, false)
	small, _ := hammerCost(512, nil, false)
	big, _ := hammerCost(1024, nil, false)
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
		t.Skip("sync.Pool drops a share of the recycled flights under the race detector")
	}
	t.Cleanup(func() { sim.DrainCarrierPool() })
	hammerCost(64, metrics(), true)
	small, _ := hammerCost(512, metrics(), true)
	big, _ := hammerCost(1024, metrics(), true)
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
		t.Skip("sync.Pool drops a share of the recycled flights under the race detector")
	}
	t.Cleanup(func() { sim.DrainCarrierPool() })
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	hammerCost(1024, metrics(), false)
	hammerCost(64, metrics(), false)
	small, _ := hammerCost(512, metrics(), false)
	big, _ := hammerCost(1024, metrics(), false)
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
	_, small := hammerCost(512, nil, false)
	_, big := hammerCost(1024, nil, false)
	perRank := float64(big-small) / 512
	t.Logf("fig9: %d switches at p=512, %d at p=1024: %.1f per added rank", small, big, perRank)
	if perRank > 24 {
		t.Fatalf("fig9: %.1f switches per added rank, want <= 24", perRank)
	}
}
