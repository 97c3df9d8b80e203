package sim

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.At(30, func() { got = append(got, 3) })
	k.At(10, func() { got = append(got, 1) })
	k.At(20, func() { got = append(got, 2) })
	k.At(10, func() { got = append(got, 11) }) // same time: schedule order
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2, 3}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if k.Now() != 30 {
		t.Fatalf("clock = %d, want 30", k.Now())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewKernel().At(-1, func() {})
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := NewKernel()
	var at1, at2 Time
	k.Spawn("a", func(th *Thread) {
		th.Sleep(100)
		at1 = th.Now()
		th.Sleep(250)
		at2 = th.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at1 != 100 || at2 != 350 {
		t.Fatalf("timestamps %d,%d want 100,350", at1, at2)
	}
}

func TestThreadsInterleaveByTime(t *testing.T) {
	k := NewKernel()
	var order []string
	mark := func(s string) { order = append(order, s) }
	k.Spawn("slow", func(th *Thread) {
		th.Sleep(50)
		mark("slow@50")
		th.Sleep(100)
		mark("slow@150")
	})
	k.Spawn("fast", func(th *Thread) {
		th.Sleep(10)
		mark("fast@10")
		th.Sleep(90)
		mark("fast@100")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "fast@10 slow@50 fast@100 slow@150"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestParkWake(t *testing.T) {
	k := NewKernel()
	var woken Time
	var target *Thread
	target = k.Spawn("sleeper", func(th *Thread) {
		th.Park()
		woken = th.Now()
	})
	k.Spawn("waker", func(th *Thread) {
		th.Sleep(500)
		k.Wake(target)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 500 {
		t.Fatalf("woken at %d, want 500", woken)
	}
}

func TestWakeBeforeParkCoalesces(t *testing.T) {
	k := NewKernel()
	done := false
	tgt := k.Spawn("t", func(th *Thread) {
		th.Sleep(100) // wakes arrive while sleeping
		th.Park()     // must return immediately via wake bit
		done = true
	})
	k.Spawn("w", func(th *Thread) {
		th.Sleep(10)
		k.Wake(tgt)
		k.Wake(tgt) // coalesced
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("thread did not complete")
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	k.Spawn("stuck", func(th *Thread) { th.Park() })
	err := k.Run()
	d, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(d.Blocked) != 1 || !strings.Contains(d.Blocked[0], "stuck") {
		t.Fatalf("blocked = %v", d.Blocked)
	}
}

func TestThreadPanicSurfaces(t *testing.T) {
	k := NewKernel()
	k.Spawn("boom", func(th *Thread) {
		th.Sleep(5)
		panic("kaboom")
	})
	err := k.Run()
	p, ok := err.(*ThreadPanic)
	if !ok {
		t.Fatalf("want ThreadPanic, got %v", err)
	}
	if p.Thread != "boom" || fmt.Sprint(p.Value) != "kaboom" {
		t.Fatalf("panic = %+v", p)
	}
}

func TestMutexFIFOAndContention(t *testing.T) {
	k := NewKernel()
	m := new(Mutex)
	var order []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("t%d", i)
		delay := Time(i * 10)
		k.Spawn(name, func(th *Thread) {
			th.Sleep(delay)
			m.Lock(th)
			th.Sleep(100)
			order = append(order, name)
			m.Unlock(th)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, " "); got != "t0 t1 t2" {
		t.Fatalf("order %q, want FIFO", got)
	}
	if m.Contended != 2 || m.Acquired != 3 {
		t.Fatalf("contended=%d acquired=%d", m.Contended, m.Acquired)
	}
}

func TestMutexUnlockByNonOwnerPanics(t *testing.T) {
	k := NewKernel()
	m := new(Mutex)
	k.Spawn("a", func(th *Thread) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		m.Unlock(th)
	})
	_ = k.Run()
}

func TestCompletion(t *testing.T) {
	k := NewKernel()
	c := NewCompletion(k)
	var waitedUntil Time
	k.Spawn("waiter", func(th *Thread) {
		c.Wait(th)
		waitedUntil = th.Now()
		c.Wait(th) // second wait returns immediately
	})
	k.Spawn("finisher", func(th *Thread) {
		th.Sleep(77)
		c.Finish()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if waitedUntil != 77 {
		t.Fatalf("released at %d, want 77", waitedUntil)
	}
	if !c.Done() {
		t.Fatal("not done")
	}
}

func TestCompletionDoubleFinishPanics(t *testing.T) {
	k := NewKernel()
	c := NewCompletion(k)
	c.Finish()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Finish()
}

// TestRetiredCompletionPanics: once its owner retires a completion, a
// late Finish or FinishOnce — a reference that outlived the operation —
// panics instead of passing unnoticed, and the struct has not grown.
func TestRetiredCompletionPanics(t *testing.T) {
	if n := unsafe.Sizeof(Completion{}); n != 48 {
		t.Errorf("Completion is %d bytes, want 48: the retired mark must fit the padding after done", n)
	}
	for _, finish := range []struct {
		name string
		f    func(*Completion)
	}{{"Finish", (*Completion).Finish}, {"FinishOnce", (*Completion).FinishOnce}} {
		t.Run(finish.name, func(t *testing.T) {
			c := NewCompletion(NewKernel())
			c.Finish()
			c.FinishOnce() // a live duplicate stays benign
			c.Retire()
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "retired") {
					t.Fatalf("%s on a retired completion: recovered %v, want the retired panic", finish.name, r)
				}
			}()
			finish.f(c)
		})
	}
}

// TestCompletionGenerationOutlivesReuse: retiring a completion moves its
// generation on, and reusing it for the next operation keeps that
// generation, so a reference made at the old one can tell it is stale.
func TestCompletionGenerationOutlivesReuse(t *testing.T) {
	k := NewKernel()
	c := NewCompletion(k)
	at := c.Gen()
	c.Finish()
	c.Retire()
	c.Reuse(k)
	if c.Done() || c.Gen() == at {
		t.Fatalf("reused completion: done %v, generation %d (was %d), want pending at a new one", c.Done(), c.Gen(), at)
	}
	c.Finish() // live again: no retired panic
}

func TestWaitGroup(t *testing.T) {
	k := NewKernel()
	wg := NewWaitGroup(k)
	wg.Add(3)
	var released Time
	k.Spawn("waiter", func(th *Thread) {
		wg.Wait(th)
		released = th.Now()
	})
	for i := 1; i <= 3; i++ {
		d := Time(i * 10)
		k.Spawn(fmt.Sprintf("w%d", i), func(th *Thread) {
			th.Sleep(d)
			wg.Done()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if released != 30 {
		t.Fatalf("released at %d, want 30", released)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (uint64, Time, string) {
		k := NewKernel()
		rng := NewRNG(42)
		var log strings.Builder
		m := new(Mutex)
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("p%d", i)
			k.Spawn(name, func(th *Thread) {
				for j := 0; j < 5; j++ {
					th.Sleep(Time(rng.Intn(100) + 1))
					m.Lock(th)
					th.Sleep(Time(rng.Intn(20) + 1))
					fmt.Fprintf(&log, "%s@%d;", name, th.Now())
					m.Unlock(th)
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.EventsFired(), k.Now(), log.String()
	}
	e1, t1, l1 := run()
	e2, t2, l2 := run()
	if e1 != e2 || t1 != t2 || l1 != l2 {
		t.Fatalf("replay diverged: events %d/%d time %d/%d", e1, e2, t1, t2)
	}
}

func TestYield(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("a", func(th *Thread) {
		order = append(order, "a1")
		th.Yield()
		order = append(order, "a2")
	})
	k.Spawn("b", func(th *Thread) {
		order = append(order, "b1")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, " "); got != "a1 b1 a2" {
		t.Fatalf("got %q", got)
	}
}
