package sim

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/obs"
)

// pingPong runs a deterministic two-lane message exchange: each side
// sends `rounds` messages to the other with a fixed latency, replying on
// receipt. Returns (final time, events fired, sum of receive times).
func pingPong(t *testing.T, lanes, workers int, rounds int) (Time, uint64, Time) {
	t.Helper()
	const latency = Time(100)
	k := NewKernel()
	k.SetObs(obs.New())
	k.ConfigureLanes(lanes, workers, latency)

	var recvSum Time
	sums := make([]Time, lanes)
	for i := 0; i < lanes; i++ {
		ln := k.Lanes()[i]
		i := i
		k.SpawnOn(ln, fmt.Sprintf("rank%d", i), func(th *Thread) {
			for r := 0; r < rounds; r++ {
				th.Sleep(7)
				dst := k.Lanes()[(i+1)%lanes]
				at := th.Now()
				fn := func(opAt Time) {
					dst.ScheduleAbs(opAt+latency, func() {
						sums[dst.idx] += dst.Now()
					})
				}
				if dst == ln {
					ln.Defer(at+latency, fn)
				} else {
					ln.DeferRemote(at+latency, fn)
				}
				th.Sleep(13)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, s := range sums {
		recvSum += s
	}
	return k.Now(), k.EventsFired(), recvSum
}

func TestLanesDeterministicAcrossWorkers(t *testing.T) {
	for _, lanes := range []int{1, 2, 4} {
		base := [3]any{}
		for wi, workers := range []int{1, 2, 4} {
			final, fired, sum := pingPong(t, lanes, workers, 50)
			got := [3]any{final, fired, sum}
			if wi == 0 {
				base = got
				continue
			}
			if got != base {
				t.Fatalf("lanes=%d workers=%d: got %v, want %v", lanes, workers, got, base)
			}
		}
	}
}

// TestLanesSelfDeferCap exercises the dynamic window cap: a lane that
// sprints far ahead must still receive the return leg of its own
// deferred operation in its future.
func TestLanesSelfDeferCap(t *testing.T) {
	k := NewKernel()
	k.ConfigureLanes(2, 2, 10)
	a, b := k.Lanes()[0], k.Lanes()[1]
	hits := 0
	k.SpawnOn(a, "a", func(th *Thread) {
		// Send to b at +10; b replies at +10 more. Meanwhile keep busy far
		// past the reply time — without the Defer cap this would execute
		// events past the reply's arrival before it is applied.
		at := th.Now()
		a.DeferRemote(at+10, func(opAt Time) {
			b.ScheduleAbs(opAt+10, func() {
				bt := b.Now()
				b.DeferRemote(bt+10, func(op2 Time) {
					a.ScheduleAbs(op2+10, func() { hits++ })
				})
			})
		})
		for i := 0; i < 100; i++ {
			th.Sleep(1)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if hits != 1 {
		t.Fatalf("reply not delivered: hits=%d", hits)
	}
}

// TestLanesDeadlock verifies a blocked thread on a lane still surfaces
// as a DeadlockError with its name, and that the failed run leaves no
// goroutine behind: neither the blocked threads' nor the lane workers'.
func TestLanesDeadlock(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	k.ConfigureLanes(2, 2, 5)
	k.SpawnOn(k.Lanes()[0], "busy", func(th *Thread) {
		th.Sleep(50)
	})
	k.SpawnOn(k.Lanes()[1], "stuck", func(th *Thread) {
		th.Sleep(20)
		th.Park()
	})
	err := k.Run()
	if n := settledGoroutines(base); n > base {
		t.Errorf("%d goroutines after a deadlocked multi-lane run, %d before", n, base)
	}
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "stuck(parked)" {
		t.Fatalf("blocked = %v", de.Blocked)
	}
}

// TestLanesCoordinatorEvents verifies Kernel.At events (fault windows,
// setup timers) interleave with lane execution at the right times.
func TestLanesCoordinatorEvents(t *testing.T) {
	k := NewKernel()
	k.ConfigureLanes(2, 2, 10)
	var coordTimes []Time
	k.At(55, func() { coordTimes = append(coordTimes, k.Now()) })
	k.At(5, func() { coordTimes = append(coordTimes, k.Now()) })
	for i := 0; i < 2; i++ {
		k.SpawnOn(k.Lanes()[i], fmt.Sprintf("w%d", i), func(th *Thread) {
			for j := 0; j < 20; j++ {
				th.Sleep(10)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(coordTimes) != 2 || coordTimes[0] != 5 || coordTimes[1] != 55 {
		t.Fatalf("coordinator events fired at %v", coordTimes)
	}
	if k.Now() != 200 {
		t.Fatalf("final time %d", k.Now())
	}
}

// goroutineID names the calling goroutine, from its stack header
// ("goroutine 42 [running]:").
func goroutineID() string {
	var buf [64]byte
	return string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1])
}

// TestLaneThreadsResumedAcrossWorkers: a lane is run by whichever worker
// claims it each window, so over a long run every thread's coroutine is
// resumed from several goroutines (and OS threads). Threads that sleep,
// park and wake each other through a thousand rounds must come out the
// same as on one worker; under -race this is also the check that a
// coroutine switch orders the lane's state between successive owners.
func TestLaneThreadsResumedAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const (
		lanes  = 8
		pairs  = 4
		rounds = 1000
	)
	run := func(workers int) (final Time, fired uint64, sum Time, migrated int) {
		k := NewKernel()
		k.ConfigureLanes(lanes, workers, 40)
		sums := make([]Time, lanes)
		owners := make([]map[string]bool, lanes)
		for i, ln := range k.Lanes() {
			owners[i] = map[string]bool{}
			var watch func()
			watch = func() { // an event callback runs on the window's owner
				owners[i][goroutineID()] = true
				if ln.live > 0 {
					ln.At(97, watch)
				}
			}
			ln.At(1, watch)
			next := k.Lanes()[(i+1)%lanes]
			for p := 0; p < pairs; p++ {
				parker := k.SpawnOn(ln, fmt.Sprintf("parker%d.%d", i, p), func(th *Thread) {
					for r := 0; r < rounds; r++ {
						th.Park()
						th.Sleep(Time(1 + (i+p+r)%3))
						sums[i] += th.Now()
					}
				})
				k.SpawnOn(ln, fmt.Sprintf("waker%d.%d", i, p), func(th *Thread) {
					for r := 0; r < rounds; r++ {
						th.Sleep(Time(2 + (i+2*p+r)%5))
						k.Wake(parker)
						if r%16 == 0 { // keep the lanes' horizons coupled
							ln.DeferRemote(th.Now()+40, func(at Time) {
								next.ScheduleAbs(at+40, func() { sums[next.idx] += next.Now() })
							})
						}
						th.Yield()
					}
				})
			}
		}
		if err := k.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range sums {
			sum += sums[i]
			if len(owners[i]) > 1 {
				migrated++
			}
		}
		return k.Now(), k.EventsFired(), sum, migrated
	}
	final1, fired1, sum1, _ := run(1)
	final4, fired4, sum4, migrated := run(4)
	if final4 != final1 || fired4 != fired1 || sum4 != sum1 {
		t.Fatalf("4 workers: final %d events %d sum %d; 1 worker: final %d events %d sum %d",
			final4, fired4, sum4, final1, fired1, sum1)
	}
	t.Logf("%d events; %d of %d lanes changed worker goroutine", fired4, migrated, lanes)
}
