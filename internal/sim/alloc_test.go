package sim

import "testing"

// The zero-allocation invariant (see queue.go): steady-state scheduling
// must not allocate. These tests are the regression gate (`go test ./...`
// runs them; they skip under -race, which allocates); if a change
// reintroduces per-event allocation (a pointer-boxed heap, a closure per
// wake-up), they fail.

// TestAtRunZeroAlloc drives timed events (value-heap path) through a
// warmed kernel and asserts At+Run allocate nothing.
func TestAtRunZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	k := NewKernel()
	fn := func() {}
	// Warm-up: grow the heap slice past anything the measured runs need.
	for i := 0; i < 4096; i++ {
		k.At(Time(i%13+1), fn)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < 512; i++ {
			k.At(Time(i%13+1), fn)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("At+Run (timed): %.2f allocs per 512-event cycle, want 0", avg)
	}
}

// TestZeroDelayZeroAlloc drives same-instant events (FIFO-ring path,
// the Spawn/Wake/Yield shape) and asserts zero allocations.
func TestZeroDelayZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	k := NewKernel()
	n := 0
	var chain func()
	chain = func() {
		n++
		if n%512 != 0 {
			k.At(0, chain)
		}
	}
	// Warm-up grows the ring.
	k.At(0, chain)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		k.At(0, chain)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("At+Run (zero-delay): %.2f allocs per 512-event cycle, want 0", avg)
	}
}

// threadLifecycleAllocs is the allocation count of a fresh kernel that
// spawns `threads` threads, each sleeping `sleeps` times, and runs them
// to completion: from an empty carrier pool when cold, so that every
// thread makes its coroutine, else from whatever the pool holds.
func threadLifecycleAllocs(t *testing.T, threads, sleeps int, cold bool) float64 {
	return testing.AllocsPerRun(10, func() {
		if cold {
			drainCarriers()
		}
		k := NewKernel()
		for i := 0; i < threads; i++ {
			k.Spawn("w", func(th *Thread) {
				for i := 0; i < sleeps; i++ {
					th.Sleep(1)
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestThreadSwitchConstantAlloc asserts the closure-free thread path: a
// Sleep round trip — schedule, switch out to the lane, switch back in —
// allocates nothing, so a thread's allocations do not depend on how
// many transfers it performs. Before the typed thread-target events,
// every Sleep/Yield/Wake allocated a closure. Two threads, so that each
// sleep ends behind the other's and does switch.
func TestThreadSwitchConstantAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	small, large := threadLifecycleAllocs(t, 2, 64, false), threadLifecycleAllocs(t, 2, 2048, false)
	if large >= small+1 {
		t.Fatalf("allocs grow with transfer count: %.1f at 64 sleeps vs %.1f at 2048", small, large)
	}
}

// TestThreadSpawnAllocBound bounds the fixed cost of one thread in a cold
// process, whose every thread makes the carrier it runs on: this test's
// body closure, the carrier's method value and what iter.Pull allocates
// for a coroutine — 13.1 objects in all with go1.24, the Thread and the
// carrier being slots of their lane's slabs (14.07 when the Thread was its
// own object) — so that a costlier coroutine in a future toolchain fails
// here, by name, rather than as a few percent on a benchmark that spawns
// two threads per rank.
func TestThreadSpawnAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	t.Cleanup(drainCarriers)
	const extra = 256
	perThread := (threadLifecycleAllocs(t, 1+extra, 1, true) - threadLifecycleAllocs(t, 1, 1, true)) / extra
	t.Logf("%.2f allocs per spawn-run-finish thread, cold", perThread)
	if perThread > 13.5 {
		t.Fatalf("%.2f allocs per spawn-run-finish thread, cold, want <= 13.5", perThread)
	}
}

// TestThreadSpawnWarmAllocBound is the same cost in a warm process, whose
// threads run on the carriers earlier runs pooled: the body closure and
// the thread's share of its lane's arrays, 1.11 objects measured, bounded
// at that plus 5 %.
func TestThreadSpawnWarmAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	t.Cleanup(drainCarriers)
	const extra = 256
	threadLifecycleAllocs(t, 1+extra, 1, false) // prime the pool
	perThread := (threadLifecycleAllocs(t, 1+extra, 1, false) - threadLifecycleAllocs(t, 1, 1, false)) / extra
	t.Logf("%.2f allocs per spawn-run-finish thread, warm", perThread)
	if perThread > 1.17 {
		t.Fatalf("%.2f allocs per spawn-run-finish thread, warm, want <= 1.17", perThread)
	}
}
