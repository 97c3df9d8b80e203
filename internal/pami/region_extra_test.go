package pami

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

func TestRegisterMemoryForbidden(t *testing.T) {
	r := newRig(t, 1, 1, 1)
	r.spawnAll(1, func(th *sim.Thread, c *Client) {
		c.MaxRegions = -1
		a := c.Space.Alloc(128)
		if c.RegisterMemory(th, a, 128) != nil {
			t.Error("registration must fail when forbidden")
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeregisterUnknownIsNoop(t *testing.T) {
	r := newRig(t, 1, 1, 1)
	r.spawnAll(1, func(th *sim.Thread, c *Client) {
		a := c.Space.Alloc(128)
		reg := c.RegisterMemory(th, a, 128)
		ghost := &MemRegion{Rank: 0, Base: 9999, Size: 1}
		c.DeregisterMemory(ghost) // not registered: no effect
		if c.RegionCount() != 1 {
			t.Errorf("count = %d", c.RegionCount())
		}
		c.DeregisterMemory(reg)
		if c.RegionCount() != 0 {
			t.Errorf("count = %d after real deregister", c.RegionCount())
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestUnknownDispatchPanics: an active message for an id nobody
// registered — inside the handler table or beyond it — fails the run on
// the servicing thread, naming the target and the id.
func TestUnknownDispatchPanics(t *testing.T) {
	for _, id := range []int{DispatchUserBase + 3, 99} {
		r := newRig(t, 2, 1, 1)
		r.spawnAll(1, func(th *sim.Thread, c *Client) {
			switch c.Rank {
			case 1:
				th.Sleep(sim.Millisecond)
				c.Contexts[0].Progress(th) // dispatching id must panic
			case 0:
				ep := c.CreateEndpoint(th, 1, 0)
				c.Contexts[0].SendAM(th, ep, id, nil, nil)
			}
		})
		err := r.k.Run()
		p, ok := err.(*sim.ThreadPanic)
		want := fmt.Sprintf("pami: rank 1 ctx 0: no handler for dispatch %d", id)
		if !ok || p.Thread != threadName("main", 1) || fmt.Sprint(p.Value) != want {
			t.Fatalf("dispatch %d: got %v, want a panic %q on rank 1's thread", id, err, want)
		}
	}
}

func TestDuplicateClientPanics(t *testing.T) {
	r := newRig(t, 1, 1, 1)
	r.spawnAll(1, func(th *sim.Thread, c *Client) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		r.m.NewClient(th, 0)
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMachineAccessors(t *testing.T) {
	r := newRig(t, 3, 1, 1)
	r.spawnAll(1, func(th *sim.Thread, c *Client) {
		if c.Rank != 0 {
			return
		}
		if r.m.Procs() < 3 {
			t.Errorf("procs = %d", r.m.Procs())
		}
		if r.m.Client(0) != c {
			t.Error("Client(0) mismatch")
		}
		if r.m.Space(1) == nil {
			t.Error("no space for rank 1")
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOpSetOverCompletionPanics(t *testing.T) {
	r := newRig(t, 1, 1, 1)
	r.spawnAll(1, func(th *sim.Thread, c *Client) {
		comp := sim.NewCompletion(r.k)
		set := new(OpSet)
		c.Contexts[0].InitOpSet(set, comp)
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		set.done() // no chunk was ever added
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}
