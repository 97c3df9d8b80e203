package armci

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// idleWorldBytes is the host memory a one-Malloc, no-traffic world of the
// given size allocates over its whole life.
func idleWorldBytes(t *testing.T, procs int) uint64 {
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
	return after.TotalAlloc - before.TotalAlloc
}

// TestIdleWorldBytesScaleWithRanks: bringing a world up and running one
// collective Malloc must cost host memory in proportion to p (per-rank
// state is clique-sized), not p² (every rank holding a p-sized copy of the
// exchange, cache buckets or fence table — which doubling p multiplies by
// about 4).
func TestIdleWorldBytesScaleWithRanks(t *testing.T) {
	idleWorldBytes(t, 64) // page in the code paths and the runtime's own pools
	small, big := idleWorldBytes(t, 512), idleWorldBytes(t, 1024)
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
