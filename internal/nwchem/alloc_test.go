package nwchem

import (
	"runtime"
	"testing"

	"repro/internal/armci"
)

// scfObjects is the heap objects one SCF experiment allocates: 64 ranks
// with the asynchronous thread, the benchmark's molecule. Two collections
// first empty the sync.Pools behind pami's flights and their victim
// caches, so every measurement starts from the same empty pools.
func scfObjects(iterations int) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	Experiment(armci.Config{Procs: 64, ProcsPerNode: 16, AsyncThread: true},
		Config{Mol: NewMolecule([]int{8, 6, 6, 8, 6, 6}), Iterations: iterations, FlopRate: 2e7})
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs - before.Mallocs)
}

// TestSCFIterationAllocBudget: once a rank has contacted a peer, a Fock
// build allocates nothing for it — ga's patches reuse their array's
// buffers and the rank's one patch buffer, operation and request slots
// recycle, and a peer's endpoints, fence counts and status live in its
// clique-table record. So four more iterations cost only what the ranks
// meet for the first time in them: records and region-cache buckets for
// peers first contacted late, a larger patch first seen late, a progress
// queue first grown late. Measured 409 objects for the four, run after
// run (3 793 while each call made its own patch buffers, slots and status
// vectors); the bound is 409 plus 5 %.
func TestSCFIterationAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates, and operation slots are retired under it")
	}
	// One P, and the least of three runs: a collection during a run
	// empties the flight pools and a goroutine that changes P misses its
	// pool, and either only adds objects.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	scfObjects(6) // warm: carriers pooled, code paths paged in
	least := func(iterations int) int64 {
		n := scfObjects(iterations)
		for range 2 {
			n = min(n, scfObjects(iterations))
		}
		return n
	}
	two, six := least(2), least(6)
	extra := six - two
	t.Logf("64 ranks: %d objects for 2 iterations, %d for 6: %d for the 4 more", two, six, extra)
	if extra > 429 {
		t.Fatalf("4 more SCF iterations cost %d heap objects, want <= 429", extra)
	}
}
