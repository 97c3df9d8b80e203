package nwchem

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"testing"

	"repro/internal/armci"
	"repro/internal/sweep"
)

// scfObjects is the heap objects one SCF experiment allocates: 64 ranks
// with the asynchronous thread, the benchmark's molecule, run through eng
// as the benchmark runs its worlds, so that it recycles what the runs
// before it left on the engine's shelf.
func scfObjects(eng *sweep.Engine, iterations int) int64 {
	return programObjects(func() {
		sweep.Map(eng, 1, func(c *sweep.Ctx, _ int) Result {
			return Experiment(c.Cfg(armci.Config{Procs: 64, ProcsPerNode: 16, AsyncThread: true}),
				Config{Mol: NewMolecule([]int{8, 6, 6, 8, 6, 6}), Iterations: iterations, FlopRate: 2e7})
		})
	})
}

// programObjects returns the heap objects the program allocates while f
// runs, read from the heap profile (profileAll): every allocation with a
// function of this module on its stack and no collector frame below it.
// MemStats.Mallocs would also count what the runtime allocates for itself
// meanwhile, which differs from run to run with the collector — a sudog
// for a mark worker or for a mark assist that one of the program's
// allocations triggered, an M for the scheduler, a timer for the
// scavenger: at GOGC 25 one or two objects a run. The profile misses one
// kind of the program's allocations, a tiny one that fits the tiny block
// an earlier one started, and the runtime counts those (tinyFits). At
// GOGC 100, where the collector allocates nothing, the two counts agree.
func programObjects(f func()) int64 {
	p0, t0 := moduleAllocs(), tinyFits()
	f()
	t1 := tinyFits()
	return moduleAllocs() - p0 + t1 - t0
}

// moduleAllocs is how many allocations the heap profile holds that a
// function of this module made, other than this one.
func moduleAllocs() int64 {
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
			if strings.HasPrefix(fr.Function, "runtime.gc") || strings.HasSuffix(fr.Function, ".moduleAllocs") {
				break
			}
			if strings.HasPrefix(fr.Function, "repro/") {
				total += r.AllocObjects
				break
			}
		}
	}
	return total
}

// tinyFits is how many allocations so far went into a tiny block that an
// earlier one started.
func tinyFits() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms) // flushes the allocator caches' counts
	s := []metrics.Sample{{Name: "/gc/heap/tiny/allocs:objects"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// profileAll puts every allocation in the heap profile until the test
// ends. The rate stays put while the test measures: an allocator cache
// that sees the rate change profiles its next allocation whatever the new
// rate.
func profileAll(t *testing.T) {
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	t.Cleanup(func() { runtime.MemProfileRate = rate })
}

// warm runs the experiment on eng until two runs in a row make the same
// objects: carriers pooled, code paths paged in, and the engine's shelf
// stocked with every flight a lane takes. A lane takes flights from the
// shelf a batch at a time, so a run can find it empty while other lanes
// hold more than they use, and the first few runs each add a chunk.
func warm(t *testing.T, eng *sweep.Engine, iterations int) {
	t.Helper()
	last := scfObjects(eng, iterations)
	for range 8 {
		n := scfObjects(eng, iterations)
		if n == last {
			return
		}
		last = n
	}
	t.Fatalf("%d iterations: no two runs in a row made the same objects", iterations)
}

// steady is the objects a warm run of the experiment makes, read three
// times: every run must make the same objects.
func steady(t *testing.T, eng *sweep.Engine, iterations int) int64 {
	t.Helper()
	n := scfObjects(eng, iterations)
	for range 2 {
		if m := scfObjects(eng, iterations); m != n {
			t.Fatalf("%d iterations on a warm engine: %d objects, then %d", iterations, n, m)
		}
	}
	return n
}

// TestSCFIterationAllocBudget: once a rank has contacted a peer, a Fock
// build allocates nothing for it — ga's patches reuse their array's
// buffers and the rank's one patch buffer, operation and request slots
// recycle, and a peer's endpoints, fence counts and status live in its
// clique-table record. And the tables a rank grows for peers and work it
// meets late — clique records, buckets, status rows, progress queues —
// are the ones the engine's earlier worlds grew, reset on its shelf. So
// four more iterations cost only what the world itself makes late: ga
// patch and staging buffers first seen at a larger size, which belong to
// the world's arrays. Measured 26 objects for the four, by the profile
// as by MemStats.Mallocs (268 while every world grew its own tables; 314
// while flights were pooled process-wide and a collection emptied the
// pool; 409 while the buckets were a map beside the clique table; 3 793
// while each call made its own patch buffers, slots and status vectors);
// the bound is 26 plus 5 %.
func TestSCFIterationAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates, and operation slots are retired under it")
	}
	profileAll(t)
	eng := sweep.NewSharded(1, 0, nil)
	warm(t, eng, 6)
	two, six := steady(t, eng, 2), steady(t, eng, 6)
	extra := six - two
	t.Logf("64 ranks: %d objects for 2 iterations, %d for 6: %d for the 4 more", two, six, extra)
	if extra > 27 {
		t.Fatalf("4 more SCF iterations cost %d heap objects, want <= 27", extra)
	}
}

// TestSCFAllocsIndependentOfGC: what a warm run allocates is a function of
// its config and of the runs its engine ran before, never of when the
// collector ran. Every recycled flight and payload lives on the engine's
// shelf, which no collection empties, so the same run makes the same
// objects at GOGC 25, 100, 400 and off.
func TestSCFAllocsIndependentOfGC(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates, and operation slots are retired under it")
	}
	profileAll(t)
	eng := sweep.NewSharded(1, 0, nil)
	defer debug.SetGCPercent(debug.SetGCPercent(25))
	warm(t, eng, 2)
	var want int64
	for i, gogc := range []int{25, 100, 400, -1} {
		debug.SetGCPercent(gogc)
		got := steady(t, eng, 2)
		t.Logf("GOGC %d: %d objects", gogc, got)
		if i == 0 {
			want = got
		} else if got != want {
			t.Errorf("GOGC %d: %d objects, GOGC 25: %d", gogc, got, want)
		}
	}
}
