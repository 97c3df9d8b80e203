package pami

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// payload stands for what a served work item holds — an AM's data, up
// to a megabyte on the fallback put path.
type payload struct{ b [1 << 10]byte }

func (p *payload) serve(*sim.Thread, uint32) { _ = p.b[0] }

// itemHolding returns a work item that is the only reference to a fresh
// payload; collected is closed when the collector frees it.
func itemHolding(collected chan struct{}) workItem {
	p := new(payload)
	runtime.SetFinalizer(p, func(*payload) { close(collected) })
	return workItem{w: p}
}

// TestWorkQueueAllocFreeAndForgetful: a context's work queue usually
// holds at most one item. Serving it must leave the queue's array in
// place for the next post — popping with queue = queue[1:] walked the
// capacity off the front, one allocation per post — and must drop the
// served item, so that the payload it held is garbage while the context
// lives on.
func TestWorkQueueAllocFreeAndForgetful(t *testing.T) {
	r := newRig(t, 1, 1, 1)
	r.spawnAll(1, func(th *sim.Thread, c *Client) {
		x := &c.Contexts[0]
		w := new(payload)
		cycle := func() {
			x.post(workItem{w: w})
			if x.Progress(th) != 1 || x.Pending() != 0 {
				t.Error("post then Progress did not serve exactly the posted item")
			}
		}
		cycle() // warm-up: the queue's array
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Errorf("post + Progress on a drained context allocates %v times, want 0", n)
		}

		collected := make(chan struct{})
		x.post(itemHolding(collected))
		x.Progress(th)
		for i := 0; i < 100; i++ {
			runtime.GC()
			select {
			case <-collected:
				return
			case <-time.After(time.Millisecond): // the finalizer runs on its own goroutine
			}
		}
		t.Error("a served item's payload is still reachable from its drained context")
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}
