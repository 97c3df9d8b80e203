package bench

import (
	"runtime"
	"testing"

	"repro/internal/armci"
)

// hammerObjects is the heap objects one whole fig9 simulation allocates:
// the hammer body, asynchronous progress, rank 0 computing, two
// fetch-and-adds per worker — the amo_storm benchmark workload's world.
func hammerObjects(procs int) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	hammer(armci.Config{Procs: procs, ProcsPerNode: 16, AsyncThread: true}, 2, true, false)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestFig9ObjectsPerRank is the ROADMAP's per-rank budget on the workload
// it names: one more rank of a fig9 world — bring-up, one collective
// Malloc, three fetch-and-add round trips served by rank 0's progress
// thread, finalize — costs at most 100 heap objects. The per-source
// budget is DESIGN.md's "Built once per world, instantiated per rank"
// table; TestIdleWorldObjectsPerRank (internal/armci) bounds the part
// that is bring-up alone.
func TestFig9ObjectsPerRank(t *testing.T) {
	hammerObjects(64) // page in the code paths and the runtime's own pools
	small, big := hammerObjects(512), hammerObjects(1024)
	perRank := float64(big-small) / 512
	t.Logf("fig9: %d objects at p=512, %d at p=1024: %.1f per added rank", small, big, perRank)
	if perRank > 100 {
		t.Fatalf("fig9: %.1f objects per added rank, want <= 100", perRank)
	}
}
