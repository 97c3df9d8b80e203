package sim

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// settledGoroutines returns the goroutine count once it has fallen to
// base, or the count still standing after a grace period. Coroutines
// released by Run are gone when it returns; lane workers exit shortly
// after their start channel closes.
func settledGoroutines(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// idlePollers spawns n stepper threads (SpawnSteps) that park for good at
// their first step, so they never have a coroutine. Nothing stops them.
func idlePollers(t *testing.T, k *Kernel, n int) {
	for i := 0; i < n; i++ {
		k.SpawnSteps(&k.Lane, "async", i, parkForever{})
	}
}

// parkForever is a body that parks at every step and is never done.
type parkForever struct{}

func (parkForever) Step(th *Thread) bool {
	for th.Await() {
	}
	return false
}

// TestFailedRunReleasesThreads: a run that ends in an error must not
// leave its unfinished threads' goroutines behind — parked, sleeping,
// never-started and coroutine-less ones alike — and must run their
// deferred calls.
func TestFailedRunReleasesThreads(t *testing.T) {
	t.Run("deadlock", func(t *testing.T) {
		base := runtime.NumGoroutine()
		k := NewKernel()
		unwound := 0
		for i := 0; i < 64; i++ {
			k.Spawn(fmt.Sprintf("stuck%d", i), func(th *Thread) {
				defer func() { unwound++ }()
				th.Sleep(Time(i + 1))
				th.Park()
			})
		}
		idlePollers(t, k, 4)
		err := k.Run()
		de, ok := err.(*DeadlockError)
		if !ok || len(de.Blocked) != 68 {
			t.Fatalf("want a 68-thread DeadlockError, got %v", err)
		}
		if !slices.Contains(de.Blocked, "async-0003(parked)") {
			t.Errorf("the report does not name the lazily parked poller: %v", de.Blocked)
		}
		if unwound != 64 {
			t.Errorf("%d of 64 blocked threads unwound", unwound)
		}
		if k.live != 0 {
			t.Errorf("live = %d after release, want 0", k.live)
		}
		if n := settledGoroutines(base); n > base {
			t.Errorf("%d goroutines after a deadlocked run, %d before", n, base)
		}
	})
	t.Run("panic", func(t *testing.T) {
		base := runtime.NumGoroutine()
		k := NewKernel()
		for i := 0; i < 8; i++ {
			k.Spawn(fmt.Sprintf("sleeper%d", i), func(th *Thread) { th.Sleep(1000) })
			k.Spawn(fmt.Sprintf("parker%d", i), func(th *Thread) { th.Park() })
		}
		idlePollers(t, k, 4)
		k.Spawn("boom", func(th *Thread) {
			th.Sleep(5)
			// Spawned and scheduled, but the run fails before it starts.
			k.Spawn("unborn", func(th *Thread) { t.Error("unborn thread ran") })
			panic("kaboom")
		})
		err := k.Run()
		p, ok := err.(*ThreadPanic)
		if !ok || p.Thread != "boom" {
			t.Fatalf("want boom's ThreadPanic, got %v", err)
		}
		for _, th := range k.threads {
			if th.state != stateDone {
				t.Errorf("thread %s left %s", th.Name(), th.state)
			}
			if th.Name() != "boom" && th.panicked != nil {
				t.Errorf("released thread %s recorded a panic: %v", th.Name(), th.panicked.Value)
			}
		}
		if k.live != 0 {
			t.Errorf("live = %d after release, want 0", k.live)
		}
		if n := settledGoroutines(base); n > base {
			t.Errorf("%d goroutines after a panicked run, %d before", n, base)
		}
	})
}

// explodingBody is a named thread body so its frame can be found in the
// recorded stack.
func explodingBody(th *Thread, sleeps int) {
	for i := 0; i < sleeps; i++ {
		th.Sleep(3)
	}
	panic(fmt.Errorf("exploded after %d sleeps", sleeps))
}

// TestThreadPanicReport: a panic in a thread body — on its first run or
// after it has switched out and back — surfaces from Run with the
// thread's name, the panic value and a stack that shows the body.
func TestThreadPanicReport(t *testing.T) {
	for _, sleeps := range []int{0, 3} {
		k := NewKernel()
		k.Spawn("bystander", func(th *Thread) { th.Sleep(100) })
		k.Spawn("victim", func(th *Thread) { explodingBody(th, sleeps) })
		err := k.Run()
		p, ok := err.(*ThreadPanic)
		if !ok {
			t.Fatalf("sleeps=%d: want ThreadPanic, got %v", sleeps, err)
		}
		want := fmt.Sprintf("exploded after %d sleeps", sleeps)
		if p.Thread != "victim" || fmt.Sprint(p.Value) != want {
			t.Errorf("sleeps=%d: panic = %q in %q, want %q in \"victim\"", sleeps, p.Value, p.Thread, want)
		}
		if !strings.Contains(p.Stack, "explodingBody") {
			t.Errorf("sleeps=%d: stack does not show the body:\n%s", sleeps, p.Stack)
		}
		if !strings.Contains(p.Error(), want) {
			t.Errorf("sleeps=%d: Error() = %q", sleeps, p.Error())
		}
	}
}

// TestIndexedThreadNamedOnFirstRead: a SpawnIndexed thread is known as
// "prefix-NNNN" wherever a name is read — a deadlock report, a
// ThreadPanic — and carries its index to the body all of them share.
func TestIndexedThreadNamedOnFirstRead(t *testing.T) {
	k := NewKernel()
	var seen []int
	body := func(th *Thread) {
		seen = append(seen, th.Index())
		if th.Index() == 3 {
			th.Park() // nobody wakes it
		}
	}
	for i := 0; i < 5; i++ {
		k.SpawnIndexed(&k.Lane, "rank", i, body)
	}
	de, ok := k.Run().(*DeadlockError)
	if !ok || len(de.Blocked) != 1 || de.Blocked[0] != "rank-0003(parked)" {
		t.Fatalf("want rank-0003(parked) blocked, got %v", de)
	}
	if fmt.Sprint(seen) != "[0 1 2 3 4]" {
		t.Errorf("bodies saw indexes %v", seen)
	}

	k = NewKernel()
	th := k.SpawnIndexed(&k.Lane, "rank", 3, func(*Thread) { panic("kaboom") })
	if p, ok := k.Run().(*ThreadPanic); !ok || p.Thread != "rank-0003" {
		t.Fatalf("want a ThreadPanic on rank-0003, got %v", p)
	}
	if th.Name() != "rank-0003" || th.Index() != 3 {
		t.Errorf("after the name was read: Name %q Index %d", th.Name(), th.Index())
	}
	if plain := NewKernel().Spawn("solo", func(*Thread) {}); plain.Name() != "solo" || plain.Index() != -1 {
		t.Errorf("plain thread: Name %q Index %d", plain.Name(), plain.Index())
	}
}

// TestIndexedSpawnAllocsNoName: with nothing reading names (observability
// off, no failure), an indexed thread costs exactly what a thread spawned
// under a constant name costs — no fmt call, no name string.
func TestIndexedSpawnAllocsNoName(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	body := func(th *Thread) { th.Sleep(1) }
	run := func(spawn func(k *Kernel, i int)) float64 {
		return testing.AllocsPerRun(10, func() {
			k := NewKernel()
			for i := 0; i < 64; i++ {
				spawn(k, i)
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	unnamed := run(func(k *Kernel, _ int) { k.Spawn("w", body) })
	indexed := run(func(k *Kernel, i int) { k.SpawnIndexed(&k.Lane, "rank", 1000+i, body) })
	if indexed != unnamed {
		t.Fatalf("64 indexed threads: %v allocations, 64 under a constant name: %v", indexed, unnamed)
	}
}
