package sim

import (
	"reflect"
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
	m := new(Mutex)
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

// TestFIFO: order is first-in first-out through drains, refills and the
// slide a never-drained queue performs, and the array stops growing once
// it fits the backlog.
func TestFIFO(t *testing.T) {
	var q FIFO[int]
	next, want := 0, 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			q.Push(next)
			next++
		}
	}
	pop := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if got := q.Pop(); got != want {
				t.Fatalf("popped %d, want %d", got, want)
			}
			want++
		}
	}
	push(1)
	pop(1) // drained: rewinds
	push(3)
	pop(3)
	if c := cap(q.items); c > 4 {
		t.Errorf("a queue that never held more than 3 has an array of %d", c)
	}
	// A backlog of 5 to 8 that never drains, for a long time.
	push(8)
	for i := 0; i < 1000; i++ {
		pop(3)
		push(3)
		if q.Len() != 8 {
			t.Fatalf("Len = %d, want 8", q.Len())
		}
	}
	if c := cap(q.items); c > 32 {
		t.Errorf("a backlog of 8 grew the array to %d", c)
	}
	pop(8)
	if q.Len() != 0 || q.head != 0 {
		t.Errorf("drained queue: Len %d head %d", q.Len(), q.head)
	}
}

// TestCompletionWakesInRegistrationOrder: the first waiter lives in a
// field and the rest in a slice, and Finish must not let that show — the
// wake events it schedules are in registration order, which is the order
// the waiters resume in.
func TestCompletionWakesInRegistrationOrder(t *testing.T) {
	k := NewKernel()
	c := NewCompletion(k)
	var order []int
	for i := 0; i < 4; i++ {
		k.Spawn("w", func(th *Thread) {
			th.Sleep(Time(1 + i)) // register in index order
			c.Wait(th)
			order = append(order, i)
		})
	}
	k.At(10, func() {
		if n := c.Waiting(); n != 4 {
			t.Errorf("%d waiters registered, want 4", n)
		}
		c.Finish()
		if n := c.Waiting(); n != 0 {
			t.Errorf("%d waiters left after Finish, want 0", n)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(order, want) {
		t.Fatalf("waiters resumed in order %v, want %v", order, want)
	}
}
