package bench

import (
	"runtime"
	"testing"

	"repro/internal/armci"
	"repro/internal/obs"
)

// hammerCost runs one whole fig9 simulation — the hammer body,
// asynchronous progress, rank 0 computing, two fetch-and-adds per worker:
// the amo_storm benchmark workload's world — and returns what it cost the
// host: heap objects allocated, and coroutine switches into simulated
// threads.
// reg is the world's registry (Config.Obs), nil for none.
func hammerCost(procs int, reg *obs.Registry) (objects, switches uint64) {
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
// thread, finalize — costs at most 15.6 heap objects, the measured 14.9
// plus 5 % (28.4 while what a rank owns once — its first allocation-table
// entries, rmw slot, regions, queued work item, second waiter, allocation
// list and seed block — and its barrier release func were heap objects;
// 34.4 until a healthy run recycled its active messages; 60 while every
// progress thread was a coroutine; 100 until a message in flight became
// one value). Per rank, from a rate-1 heap profile:
//
//	8.0  the main thread's coroutine: iter.Pull 6, its yield 1, the
//	     body's method value 1
//	1.0  the Malloc'd block's heap array
//	0.6  runtime.malg: coroutine stacks not recycled
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
	hammerCost(64, nil) // page in the code paths and the runtime's own pools
	small, _ := hammerCost(512, nil)
	big, _ := hammerCost(1024, nil)
	perRank := float64(big-small) / 512
	t.Logf("fig9: %d objects at p=512, %d at p=1024: %.1f per added rank", small, big, perRank)
	if perRank > 15.6 {
		t.Fatalf("fig9: %.1f objects per added rank, want <= 15.6", perRank)
	}
}

// TestFig9MetricsObjectsPerRank is the same budget for a world that
// records metrics into a metrics-only registry, as `armci-bench -metrics`
// makes one: at most 78.8 heap objects per added rank, the measured 75.0
// plus 5 %. A tracing registry (obs.New) reads 101.0, and read 225.3 while
// every rank formatted and looked up its own 35 ARMCI operation handles
// and four per-context-index histograms. What is left, per rank, is its
// own series: each context's label and {rank=R,ctx=C} counters and gauge,
// the rank's protocol counters at finalize, and the copy of each that the
// lane-to-parent Merge makes.
func TestFig9MetricsObjectsPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of the recycled flights under the race detector")
	}
	metrics := func() *obs.Registry { return obs.New(obs.WithTrackCap(0)) }
	hammerCost(64, metrics())
	small, _ := hammerCost(512, metrics())
	big, _ := hammerCost(1024, metrics())
	perRank := float64(big-small) / 512
	t.Logf("fig9 with metrics: %d objects at p=512, %d at p=1024: %.1f per added rank", small, big, perRank)
	if perRank > 78.8 {
		t.Fatalf("fig9 with metrics: %.1f objects per added rank, want <= 78.8", perRank)
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
	_, small := hammerCost(512, nil)
	_, big := hammerCost(1024, nil)
	perRank := float64(big-small) / 512
	t.Logf("fig9: %d switches at p=512, %d at p=1024: %.1f per added rank", small, big, perRank)
	if perRank > 24 {
		t.Fatalf("fig9: %.1f switches per added rank, want <= 24", perRank)
	}
}
