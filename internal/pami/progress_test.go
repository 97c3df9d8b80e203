package pami

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestOpSetAggregatesChunks(t *testing.T) {
	r := newRig(t, 2, 1, 1)
	var remote mem.Addr
	r.spawnAll(1, func(th *sim.Thread, c *Client) {
		switch c.Rank {
		case 1:
			remote = c.Space.Alloc(4096)
			th.Sleep(10 * sim.Millisecond)
		case 0:
			th.Sleep(sim.Millisecond)
			local := c.Space.Alloc(4096)
			c.Space.CopyIn(local, pattern4k())
			ep := c.CreateEndpoint(th, 1, 0)
			comp := sim.NewCompletion(r.k)
			set := new(OpSet)
			c.Contexts[0].InitOpSet(set, comp)
			for i := 0; i < 8; i++ {
				off := mem.Addr(i * 512)
				set.RdmaPut(th, ep, local+off, remote+off, 512)
			}
			if comp.Done() {
				t.Error("completion fired before Arm")
			}
			set.Arm()
			c.Contexts[0].WaitLocal(th, comp)
			// All chunks landed remotely by put-ack time? Put local
			// completion does not imply remote visibility; flush first.
			f := sim.NewCompletion(r.k)
			c.Contexts[0].FlushRemote(th, ep, f)
			c.Contexts[0].WaitLocal(th, f)
			got := make([]byte, 4096)
			r.m.Space(1).CopyOut(remote, got)
			want := pattern4k()
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("byte %d: %d != %d", i, got[i], want[i])
					break
				}
			}
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func pattern4k() []byte {
	b := make([]byte, 4096)
	for i := range b {
		b[i] = byte(i*13 + 5)
	}
	return b
}

func TestOpSetArmWithNoChunksFiresImmediately(t *testing.T) {
	r := newRig(t, 1, 1, 1)
	r.spawnAll(1, func(th *sim.Thread, c *Client) {
		comp := sim.NewCompletion(r.k)
		set := new(OpSet)
		c.Contexts[0].InitOpSet(set, comp)
		set.Arm()
		c.Contexts[0].WaitLocal(th, comp)
		if !comp.Done() {
			t.Error("empty op set never completed")
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitCondServicesWhileWaiting(t *testing.T) {
	r := newRig(t, 2, 1, 1)
	const dispatchPing = DispatchUserBase
	served := 0
	r.spawnAll(1, func(th *sim.Thread, c *Client) {
		switch c.Rank {
		case 1:
			c.Contexts[0].SetDispatch(dispatchPing, oneStep(func(*sim.Thread, *Context, *AMessage) {
				served++
			}))
			// Block in WaitCond until 3 pings arrive: the waiting thread
			// itself must dispatch them.
			c.Contexts[0].WaitCond(th, condFunc(func() bool { return served >= 3 }))
		case 0:
			ep := c.CreateEndpoint(th, 1, 0)
			for i := 0; i < 3; i++ {
				th.Sleep(50 * sim.Microsecond)
				c.Contexts[0].SendAM(th, ep, dispatchPing, nil, nil)
			}
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if served != 3 {
		t.Fatalf("served %d pings, want 3", served)
	}
}

func TestProgressLoopStops(t *testing.T) {
	r := newRig(t, 1, 1, 1)
	loopDone := false
	r.spawnAll(1, func(th *sim.Thread, c *Client) {
		x := &c.Contexts[0]
		r.k.Spawn("loop", func(pt *sim.Thread) {
			x.ProgressLoop(pt)
			loopDone = true
		})
		th.Sleep(sim.Millisecond)
		x.StopProgressLoop()
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if !loopDone {
		t.Fatal("progress loop never exited")
	}
}

func TestNudgeWakesWaiters(t *testing.T) {
	r := newRig(t, 1, 1, 1)
	flag := false
	r.spawnAll(1, func(th *sim.Thread, c *Client) {
		x := &c.Contexts[0]
		r.k.Spawn("nudger", func(nt *sim.Thread) {
			nt.Sleep(200 * sim.Microsecond)
			flag = true
			x.Nudge()
		})
		x.WaitCond(th, condFunc(func() bool { return flag }))
		if th.Now() < 200*sim.Microsecond {
			t.Error("woke before flag set")
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestWaitLocalRegistersOncePerWait: a thread blocked in WaitLocal (or
// WaitLocalUntil) is woken by every post and nudge on its context, goes
// round its loop and parks again. It used to AddWaiter itself to the
// completion on every trip, so a long wait left one entry per spurious
// wake for Finish to walk. One registration lasts until Finish.
func TestWaitLocalRegistersOncePerWait(t *testing.T) {
	for _, timed := range []bool{false, true} {
		r := newRig(t, 1, 1, 1)
		const nudges = 100
		done := sim.Time(-1)
		r.spawnAll(1, func(th *sim.Thread, c *Client) {
			x := &c.Contexts[0]
			comp := sim.NewCompletion(r.k)
			r.k.Spawn("nudger", func(nt *sim.Thread) {
				for i := 0; i < nudges; i++ {
					nt.Sleep(sim.Microsecond)
					x.Nudge()
				}
				nt.Sleep(sim.Microsecond)
				if n := comp.Waiting(); n != 1 {
					t.Errorf("timed=%v: %d registrations after %d nudges, want 1", timed, n, nudges)
				}
				comp.Finish()
			})
			if timed {
				if !x.WaitLocalUntil(th, comp, sim.Second) {
					t.Error("WaitLocalUntil timed out")
				}
			} else {
				x.WaitLocal(th, comp)
			}
			done = th.Now()
		})
		if err := r.k.Run(); err != nil {
			t.Fatal(err)
		}
		if want := (nudges + 1) * sim.Microsecond; done != want {
			t.Errorf("timed=%v: wait returned at %d, want %d (Finish's instant)", timed, done, want)
		}
	}
}

func TestProgressBoundedDoesNotChaseNewWork(t *testing.T) {
	r := newRig(t, 2, 1, 1)
	const dispatchChain = DispatchUserBase
	served := 0
	r.spawnAll(1, func(th *sim.Thread, c *Client) {
		switch c.Rank {
		case 1:
			x := &c.Contexts[0]
			x.SetDispatch(dispatchChain, oneStep(func(*sim.Thread, *Context, *AMessage) {
				served++
			}))
			th.Sleep(sim.Millisecond) // let two AMs queue
			if got := x.Progress(th); got != 2 {
				t.Errorf("bounded progress served %d, want the 2 queued", got)
			}
		case 0:
			ep := c.CreateEndpoint(th, 1, 0)
			c.Contexts[0].SendAM(th, ep, dispatchChain, nil, nil)
			c.Contexts[0].SendAM(th, ep, dispatchChain, nil, nil)
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHardwareAMOExecutesWithoutTargetProgress(t *testing.T) {
	k := sim.NewKernel()
	tor := topology.ForProcs(2, 1)
	p := network.DefaultParams()
	p.JitterFrac = 0
	p.HardwareAMO = true
	p.ClientCreateTime, p.ContextCreateTime = 0, 0
	m := NewMachine(k, tor, p, 1, nil)
	var counter mem.Addr
	var lat sim.Time
	for rank := 0; rank < 2; rank++ {
		rank := rank
		k.Spawn("r", func(th *sim.Thread) {
			c := m.NewClient(th, rank)
			c.CreateContexts(th, 1)
			if rank == 1 {
				counter = c.Space.Alloc(8)
				// Never advances: hardware AMOs must not care.
				th.Sleep(10 * sim.Millisecond)
				if got := c.Space.GetInt64(counter); got != 5 {
					t.Errorf("counter = %d, want 5", got)
				}
				return
			}
			th.Sleep(sim.Millisecond)
			ep := c.CreateEndpoint(th, 1, 0)
			for i := 0; i < 5; i++ {
				t0 := th.Now()
				prev := c.Contexts[0].Rmw(th, ep, counter, FetchAdd, 1, 0)
				lat = th.Now() - t0
				if prev != int64(i) {
					t.Errorf("prev = %d, want %d", prev, i)
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// NIC-executed: a couple of microseconds, no progress dependence.
	if lat > 4*sim.Microsecond {
		t.Fatalf("hardware AMO latency %s too high", sim.FormatTime(lat))
	}
}

func TestRdmaGetSetAndWaitAll(t *testing.T) {
	r := newRig(t, 2, 1, 1)
	var remote mem.Addr
	r.spawnAll(1, func(th *sim.Thread, c *Client) {
		switch c.Rank {
		case 1:
			remote = c.Space.Alloc(2048)
			c.Space.CopyIn(remote, pattern4k()[:2048])
			th.Sleep(10 * sim.Millisecond)
		case 0:
			th.Sleep(sim.Millisecond)
			local := c.Space.Alloc(2048)
			ep := c.CreateEndpoint(th, 1, 0)
			x := &c.Contexts[0]
			comp := sim.NewCompletion(r.k)
			set := new(OpSet)
			x.InitOpSet(set, comp)
			for i := 0; i < 4; i++ {
				off := mem.Addr(i * 512)
				set.RdmaGet(th, ep, off+local, remote+off, 512)
			}
			set.Arm()
			if x.Pending() < 0 {
				t.Error("negative pending")
			}
			x.WaitAllLocal(th, []*sim.Completion{comp})
			got := make([]byte, 2048)
			c.Space.CopyOut(local, got)
			want := pattern4k()[:2048]
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("byte %d: %d != %d", i, got[i], want[i])
					break
				}
			}
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPeerWithoutClientPanics(t *testing.T) {
	k := sim.NewKernel()
	tor := topology.ForProcs(2, 1)
	p := network.DefaultParams()
	p.ClientCreateTime, p.ContextCreateTime = 0, 0
	m := NewMachine(k, tor, p, 1, nil)
	k.Spawn("r0", func(th *sim.Thread) {
		c := m.NewClient(th, 0)
		c.CreateContexts(th, 1)
		local := c.Space.Alloc(64)
		ep := Endpoint{Rank: 1, Ctx: 0, Node: tor.NodeOf(1)}
		defer func() {
			if recover() == nil {
				t.Error("expected panic: rank 1 has no client")
			}
		}()
		comp := sim.NewCompletion(k)
		c.Contexts[0].RdmaPut(th, ep, local, 64, 16, comp)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
