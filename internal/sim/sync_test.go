package sim

import (
	"strings"
	"testing"
)

func TestWaitGroupNegativePanics(t *testing.T) {
	k := NewKernel()
	wg := NewWaitGroup(k)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	wg.Done()
}

func TestCompletionAddWaiterAfterDoneWakes(t *testing.T) {
	k := NewKernel()
	c := NewCompletion(k)
	c.Finish()
	ran := false
	k.Spawn("w", func(th *Thread) {
		c.AddWaiter(th)
		th.Park() // the AddWaiter on a done completion must have armed a wake
		ran = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("thread never woken")
	}
}

func TestErrorStrings(t *testing.T) {
	d := &DeadlockError{At: 1500, Blocked: []string{"x(parked)"}}
	if !strings.Contains(d.Error(), "x(parked)") || !strings.Contains(d.Error(), "deadlock") {
		t.Fatalf("%q", d.Error())
	}
	p := &ThreadPanic{Thread: "t", Value: "boom", Stack: "st"}
	if !strings.Contains(p.Error(), "boom") || !strings.Contains(p.Error(), `"t"`) {
		t.Fatalf("%q", p.Error())
	}
}

func TestMutexHeld(t *testing.T) {
	k := NewKernel()
	m := NewMutex(k)
	k.Spawn("a", func(th *Thread) {
		if m.Held(th) {
			t.Error("held before lock")
		}
		m.Lock(th)
		if !m.Held(th) {
			t.Error("not held after lock")
		}
		m.Unlock(th)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroSleepIsNoop(t *testing.T) {
	k := NewKernel()
	k.Spawn("a", func(th *Thread) {
		th.Sleep(0)
		if th.Now() != 0 {
			t.Error("zero sleep advanced time")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	k := NewKernel()
	k.Spawn("a", func(th *Thread) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		th.Sleep(-1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
