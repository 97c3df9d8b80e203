package armci_test

import (
	"runtime"
	"testing"

	"repro/internal/armci"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// idleWorldObjects is the heap objects a one-Malloc, no-traffic world of
// the given size allocates over its whole life, run through eng as the
// benchmark runs its worlds: on the carriers earlier runs pooled and on
// what they left on the engine's shelf.
func idleWorldObjects(t *testing.T, eng *sweep.Engine, procs int) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	errs := sweep.Map(eng, 1, func(c *sweep.Ctx, _ int) error {
		_, err := armci.Run(c.Cfg(armci.Config{Procs: procs, ProcsPerNode: 16, AsyncThread: true}),
			func(th *sim.Thread, rt *armci.Runtime) { rt.Malloc(th, 1024) })
		return err
	})
	runtime.ReadMemStats(&after)
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	return after.Mallocs - before.Mallocs
}

// TestIdleWorldWarmObjectsPerRank is TestIdleWorldObjectsPerRank in a warm
// process, whose worlds run through one engine: their threads run on the
// carriers of earlier runs (sim's carrier pool), and their runtimes,
// clients, contexts, spaces, lanes, threads, ranks' heaps and, at the same
// shape, their torus are the ones earlier worlds left on the engine's
// shelf, all primed here by a p = 1024 world; then the cold test's 64,
// 512, 1024. One more rank costs at most 0.0103 objects, the measured
// 0.0098 plus 5 % — five objects between p = 512 and p = 1024, the torus
// of the new shape — (0.32 while each world made its Lanes and thread
// chunks, 2.5 while it also grew its own lane arrays and rank heaps).
func TestIdleWorldWarmObjectsPerRank(t *testing.T) {
	if armci.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates: a rank reads about one object more")
	}
	t.Cleanup(func() { sim.DrainCarrierPool() })
	eng := sweep.NewSharded(1, 0, nil)
	idleWorldObjects(t, eng, 1024)
	idleWorldObjects(t, eng, 64)
	small := idleWorldObjects(t, eng, 512)
	big := idleWorldObjects(t, eng, 1024)
	perRank := float64(big-small) / 512
	t.Logf("idle world: %d objects at p=512, %d at p=1024: %.4f per added rank, warm", small, big, perRank)
	if perRank > 0.0103 {
		t.Fatalf("idle world: %.4f objects per added rank, warm, want <= 0.0103", perRank)
	}
}
