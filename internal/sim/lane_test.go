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
	k.ConfigureLanes(lanes, workers, latency, nil)

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
	k.ConfigureLanes(2, 2, 10, nil)
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
	k.ConfigureLanes(2, 2, 5, nil)
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
	k.ConfigureLanes(2, 2, 10, nil)
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

// relayResult is what laneRelay observed: the final time, the events
// fired, a sum over the threads' wake-up times, and per lane the
// goroutines its event callbacks ran on.
type relayResult struct {
	final  Time
	fired  uint64
	sum    Time
	owners []map[string]bool
}

// laneRelay runs eight lanes of four parker/waker thread pairs each on
// `workers` workers: threads that sleep, park and wake each other for
// `rounds` rounds, with a remote deposit now and then to keep the lanes'
// horizons coupled.
func laneRelay(t *testing.T, workers, rounds int) relayResult {
	t.Helper()
	const (
		lanes = 8
		pairs = 4
	)
	k := NewKernel()
	k.ConfigureLanes(lanes, workers, 40, nil)
	sums := make([]Time, lanes)
	res := relayResult{owners: make([]map[string]bool, lanes)}
	for i, ln := range k.Lanes() {
		res.owners[i] = map[string]bool{}
		var watch func()
		watch = func() { // an event callback runs on the window's owner
			res.owners[i][goroutineID()] = true
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
	for _, s := range sums {
		res.sum += s
	}
	res.final, res.fired = k.Now(), k.EventsFired()
	return res
}

// sameRelay fails the test unless two relays came out the same.
func sameRelay(t *testing.T, got, want relayResult) {
	t.Helper()
	if got.final != want.final || got.fired != want.fired || got.sum != want.sum {
		t.Fatalf("final %d events %d sum %d, want final %d events %d sum %d",
			got.final, got.fired, got.sum, want.final, want.fired, want.sum)
	}
}

// TestLaneThreadsResumedAcrossWorkers: a lane is run by whichever worker
// claims it each window, so over a long run every thread's coroutine is
// resumed from several goroutines (and OS threads). Threads that sleep,
// park and wake each other through a thousand rounds must come out the
// same as on one worker; under -race this is also the check that a
// coroutine switch orders the lane's state between successive owners.
func TestLaneThreadsResumedAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	one := laneRelay(t, 1, 1000)
	four := laneRelay(t, 4, 1000)
	sameRelay(t, four, one)
	migrated := 0
	for _, o := range four.owners {
		if len(o) > 1 {
			migrated++
		}
	}
	t.Logf("%d events; %d of %d lanes changed worker goroutine", four.fired, migrated, len(four.owners))
}
