package sim

import (
	"fmt"
	"runtime"
	"testing"
	"weak"
)

// carrierWorld spawns threads threads on k that sleep and park in turn,
// waking each other, and finish: every thread is alive at once, so the
// run needs a carrier for each.
func carrierWorld(k *Kernel, threads int) {
	ts := make([]*Thread, threads)
	for i := range ts {
		ts[i] = k.Spawn(fmt.Sprintf("w%d", i), func(th *Thread) {
			th.Sleep(Time(1 + i%3))
			if i > 0 {
				k.Wake(ts[i-1])
			}
			if i < threads-1 {
				th.Park()
			}
			th.Sleep(1)
		})
	}
}

// TestCarrierSecondRunMakesNone: a world run twice makes its coroutines
// once. The first run's carriers go to the pool, and the second run's
// threads take them.
func TestCarrierSecondRunMakesNone(t *testing.T) {
	drainCarriers()
	t.Cleanup(drainCarriers)
	run := func() int64 {
		before := carriersMadeSoFar()
		k := NewKernel()
		carrierWorld(k, 64)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return carriersMadeSoFar() - before
	}
	if made := run(); made != 64 {
		t.Fatalf("a cold run of 64 live threads made %d carriers, want 64", made)
	}
	if n := pooledCarriers(); n != 64 {
		t.Fatalf("%d carriers pooled after the first run, want 64", n)
	}
	if made := run(); made != 0 {
		t.Fatalf("the second identical run made %d carriers, want 0", made)
	}
}

// TestFailedRunPoolsNothing: a run that fails stops every carrier it
// held — those it took from the pool, those it made, and those its
// finished threads gave back — and pools none of them, so the goroutine
// count falls back to what it was before the pool was primed.
func TestFailedRunPoolsNothing(t *testing.T) {
	t.Cleanup(drainCarriers)
	cases := []struct {
		name  string
		build func(*Kernel)
	}{
		{"deadlock", func(k *Kernel) {
			k.Spawn("done", func(th *Thread) { th.Sleep(1) })
			for i := 0; i < 32; i++ {
				k.Spawn(fmt.Sprintf("stuck%d", i), func(th *Thread) { th.Sleep(Time(i + 1)); th.Park() })
			}
		}},
		{"panic", func(k *Kernel) {
			k.Spawn("done", func(th *Thread) { th.Sleep(1) })
			for i := 0; i < 32; i++ {
				k.Spawn(fmt.Sprintf("parker%d", i), func(th *Thread) { th.Park() })
			}
			k.Spawn("boom", func(th *Thread) { th.Sleep(5); panic("kaboom") })
		}},
		{"lanes-deadlock", func(k *Kernel) {
			k.ConfigureLanes(2, 2, 5, nil)
			for i := 0; i < 32; i++ {
				k.SpawnOn(k.Lanes()[i%2], fmt.Sprintf("w%d", i), func(th *Thread) { th.Sleep(Time(10 + i)) })
			}
			k.SpawnOn(k.Lanes()[1], "stuck", func(th *Thread) { th.Sleep(20); th.Park() })
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			drainCarriers()
			base := runtime.NumGoroutine()
			prime := NewKernel()
			carrierWorld(prime, 16)
			if err := prime.Run(); err != nil {
				t.Fatal(err)
			}
			if n := pooledCarriers(); n != 16 {
				t.Fatalf("%d carriers pooled by the priming run, want 16", n)
			}
			k := NewKernel()
			c.build(k)
			if err := k.Run(); err == nil {
				t.Fatal("the run did not fail")
			}
			if n := pooledCarriers(); n != 0 {
				t.Errorf("%d carriers pooled after a failed run, want 0", n)
			}
			if n := settledGoroutines(base); n > base {
				t.Errorf("%d goroutines after the failed run, %d before the pool was primed", n, base)
			}
		})
	}
}

// TestCarrierPoolCapped: the pool keeps at most carrierPoolCap carriers.
// A run that needs more than that many at once stops the rest when it
// ends, so it leaves at most the cap's worth of goroutines behind.
func TestCarrierPoolCapped(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector admits at most 8128 live goroutines")
	}
	drainCarriers()
	t.Cleanup(drainCarriers)
	base := runtime.NumGoroutine()
	k := NewKernel()
	carrierWorld(k, carrierPoolCap+256)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n := pooledCarriers(); n != carrierPoolCap {
		t.Errorf("%d carriers pooled, want the cap, %d", n, carrierPoolCap)
	}
	if n := settledGoroutines(base + carrierPoolCap); n > base+carrierPoolCap {
		t.Errorf("%d goroutines after the run, want at most %d + %d", n, base, carrierPoolCap)
	}
}

// TestPooledCarrierKeepsNoKernel: an idle carrier has let go of its last
// thread, so a pooled carrier does not keep the kernel it ran in alive.
func TestPooledCarrierKeepsNoKernel(t *testing.T) {
	drainCarriers()
	t.Cleanup(drainCarriers)
	ran := func() weak.Pointer[Kernel] {
		k := NewKernel()
		carrierWorld(k, 8)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return weak.Make(k)
	}()
	if n := pooledCarriers(); n != 8 {
		t.Fatalf("%d carriers pooled, want 8", n)
	}
	runtime.GC()
	runtime.GC()
	if ran.Value() != nil {
		t.Fatal("the kernel of a finished run is still reachable while its carriers are pooled")
	}
}

// TestCarriersResumedAcrossWorkersNextRun: carriers made on the
// coordinator's goroutine in one run — every lane inline on one worker —
// are taken from the pool and resumed by lane workers in the next run at
// four workers, which comes out the same and makes no carrier. Under
// -race this is also the check that the pool orders a carrier's hand-over
// between goroutines.
func TestCarriersResumedAcrossWorkersNextRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	drainCarriers()
	t.Cleanup(drainCarriers)
	coordinator := goroutineID()
	one := laneRelay(t, 1, 200)
	made := carriersMadeSoFar()
	four := laneRelay(t, 4, 200)
	sameRelay(t, four, one)
	if n := carriersMadeSoFar() - made; n != 0 {
		t.Fatalf("the second run made %d carriers, want 0", n)
	}
	workers := 0
	for _, o := range four.owners {
		for g := range o {
			if g != coordinator {
				workers++
				break
			}
		}
	}
	if workers == 0 {
		t.Fatal("no lane ran on a worker goroutine: nothing resumed a pooled carrier elsewhere")
	}
	t.Logf("%d of %d lanes ran on a worker goroutine", workers, len(four.owners))
}
