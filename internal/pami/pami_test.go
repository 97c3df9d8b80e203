package pami

import (
	"slices"
	"testing"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

// rig assembles a machine and pre-creates clients with nCtx contexts each,
// without charging creation costs (tests that measure creation costs build
// their own machines). It runs body once the setup barrier releases.
type rig struct {
	k *sim.Kernel
	m *Machine
}

func newRig(t *testing.T, procs, perNode, nCtx int) *rig {
	t.Helper()
	k := sim.NewKernel()
	tor := topology.ForProcs(procs, perNode)
	p := network.DefaultParams()
	p.JitterFrac = 0 // exact timing assertions
	m := NewMachine(k, tor, p, nCtx, nil)
	return &rig{k: k, m: m}
}

// spawnAll creates one thread per rank; each creates its client/contexts
// at time zero (costs suppressed via zeroed creation times) and runs body.
func (r *rig) spawnAll(nCtx int, body func(th *sim.Thread, c *Client)) {
	// Suppress setup costs so test timings start from zero.
	saveClient, saveCtx := r.m.P.ClientCreateTime, r.m.P.ContextCreateTime
	r.m.P.ClientCreateTime, r.m.P.ContextCreateTime = 0, 0
	ready := sim.NewWaitGroup(r.k)
	ready.Add(r.m.Procs())
	for rank := 0; rank < r.m.Procs(); rank++ {
		rank := rank
		r.k.Spawn(threadName("main", rank), func(th *sim.Thread) {
			c := r.m.NewClient(th, rank)
			c.CreateContexts(th, nCtx)
			ready.Done()
			ready.Wait(th)
			if rank == 0 {
				r.m.P.ClientCreateTime, r.m.P.ContextCreateTime = saveClient, saveCtx
			}
			body(th, c)
		})
	}
}

func threadName(kind string, rank int) string {
	return kind + "-" + string(rune('0'+rank/10)) + string(rune('0'+rank%10))
}

func TestRdmaPutMovesBytesWithoutTargetProgress(t *testing.T) {
	r := newRig(t, 2, 1, 1)
	var remote mem.Addr
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	r.spawnAll(1, func(th *sim.Thread, c *Client) {
		switch c.Rank {
		case 1:
			remote = c.Space.Alloc(64)
			// The target never advances its context: RDMA must still land.
			th.Sleep(50 * sim.Millisecond)
			got := make([]byte, len(payload))
			c.Space.CopyOut(remote, got)
			for i := range payload {
				if got[i] != payload[i] {
					t.Errorf("byte %d: got %d want %d", i, got[i], payload[i])
				}
			}
		case 0:
			th.Sleep(sim.Millisecond) // let rank 1 allocate
			local := c.Space.Alloc(64)
			c.Space.CopyIn(local, payload)
			ep := c.CreateEndpoint(th, 1, 0)
			comp := sim.NewCompletion(r.k)
			c.Contexts[0].RdmaPut(th, ep, local, remote, len(payload), comp)
			c.Contexts[0].WaitLocal(th, comp)
			if !comp.Done() {
				t.Error("local completion missing")
			}
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRdmaGetLatencyMatchesPaper(t *testing.T) {
	r := newRig(t, 2, 1, 1)
	var remote mem.Addr
	var lat sim.Time
	r.spawnAll(1, func(th *sim.Thread, c *Client) {
		switch c.Rank {
		case 1:
			remote = c.Space.Alloc(64)
			c.Space.CopyIn(remote, []byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
			th.Sleep(10 * sim.Millisecond)
		case 0:
			th.Sleep(sim.Millisecond)
			local := c.Space.Alloc(64)
			ep := c.CreateEndpoint(th, 1, 0)
			start := th.Now()
			comp := sim.NewCompletion(r.k)
			c.Contexts[0].RdmaGet(th, ep, local, remote, 16, comp)
			c.Contexts[0].WaitLocal(th, comp)
			lat = th.Now() - start
			if c.Space.Bytes(local, 1)[0] != 9 {
				t.Error("data not fetched")
			}
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	// Paper: 2.89 us for a 16-byte adjacent-node get.
	if lat < 2800 || lat > 2980 {
		t.Fatalf("get(16B) latency = %dns, want ~2890ns", lat)
	}
}

func TestRdmaPutLatencyMatchesPaper(t *testing.T) {
	r := newRig(t, 2, 1, 1)
	var remote mem.Addr
	var lat sim.Time
	r.spawnAll(1, func(th *sim.Thread, c *Client) {
		switch c.Rank {
		case 1:
			remote = c.Space.Alloc(64)
			th.Sleep(10 * sim.Millisecond)
		case 0:
			th.Sleep(sim.Millisecond)
			local := c.Space.Alloc(64)
			ep := c.CreateEndpoint(th, 1, 0)
			start := th.Now()
			comp := sim.NewCompletion(r.k)
			c.Contexts[0].RdmaPut(th, ep, local, remote, 16, comp)
			c.Contexts[0].WaitLocal(th, comp)
			lat = th.Now() - start
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	// Paper: 2.7 us put latency (send overhead + local completion).
	if lat < 2620 || lat > 2790 {
		t.Fatalf("put(16B) latency = %dns, want ~2700ns", lat)
	}
}

func TestAMRequiresTargetProgress(t *testing.T) {
	r := newRig(t, 2, 1, 1)
	const dispatchTest = DispatchUserBase
	var handledAt sim.Time
	r.spawnAll(1, func(th *sim.Thread, c *Client) {
		switch c.Rank {
		case 1:
			c.Contexts[0].SetDispatch(dispatchTest, oneStep(func(th *sim.Thread, x *Context, msg *AMessage) {
				handledAt = th.Now()
			}))
			// Ignore the network for 5 ms, then advance once.
			th.Sleep(5 * sim.Millisecond)
			c.Contexts[0].Progress(th)
		case 0:
			th.Sleep(sim.Millisecond)
			ep := c.CreateEndpoint(th, 1, 0)
			c.Contexts[0].SendAM(th, ep, dispatchTest, []int64{42}, []byte("hi"))
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if handledAt < 5*sim.Millisecond {
		t.Fatalf("AM handled at %s, before the target ever advanced", sim.FormatTime(handledAt))
	}
}

// TestSendAMCopiesHeader: the header travels inside the message's flight
// value (inline up to amHdrInline words, a private slice beyond), so the
// caller's slice is its own again when SendAM returns. The handler copies
// what it keeps: the flight is reused once it returns (AMHandler).
func TestSendAMCopiesHeader(t *testing.T) {
	r := newRig(t, 2, 1, 1)
	const dispatchTest = DispatchUserBase
	var got [][]int64
	r.spawnAll(1, func(th *sim.Thread, c *Client) {
		switch c.Rank {
		case 1:
			c.Contexts[0].SetDispatch(dispatchTest, oneStep(func(th *sim.Thread, x *Context, msg *AMessage) {
				got = append(got, slices.Clone(msg.Hdr))
			}))
			th.Sleep(sim.Millisecond)
			c.Contexts[0].Progress(th)
		case 0:
			ep := c.CreateEndpoint(th, 1, 0)
			hdr := make([]int64, amHdrInline+3)
			for _, n := range []int{0, 2, amHdrInline, amHdrInline + 3} {
				for i := range hdr {
					hdr[i] = int64(100*n + i)
				}
				c.Contexts[0].SendAM(th, ep, dispatchTest, hdr[:n], nil)
				clear(hdr)
			}
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("%d messages handled, want 4", len(got))
	}
	for m, n := range []int{0, 2, amHdrInline, amHdrInline + 3} {
		if len(got[m]) != n {
			t.Fatalf("message %d: header of %d words, want %d", m, len(got[m]), n)
		}
		for i, v := range got[m] {
			if v != int64(100*n+i) {
				t.Fatalf("message %d: hdr[%d] = %d, want %d", m, i, v, 100*n+i)
			}
		}
	}
}

// TestAMFlightSizeClass pins what the inline header costs: one more word
// must not move every active message into the next malloc size class.
func TestAMFlightSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(amFlight{}); n > 224 {
		t.Fatalf("amFlight is %d bytes, past the 224-byte size class", n)
	}
}

func TestRmwFetchAddAtomicUnderContention(t *testing.T) {
	const procs = 8
	const opsEach = 20
	r := newRig(t, procs, 2, 1)
	var counter mem.Addr
	sums := make([]int64, procs)
	r.spawnAll(1, func(th *sim.Thread, c *Client) {
		if c.Rank == 0 {
			counter = c.Space.Alloc(8)
			// Rank 0 services requests by polling its progress engine.
			for i := 0; i < 2000; i++ {
				c.Contexts[0].Progress(th)
				th.Sleep(10 * sim.Microsecond)
			}
			return
		}
		th.Sleep(sim.Millisecond)
		ep := c.CreateEndpoint(th, 0, 0)
		for i := 0; i < opsEach; i++ {
			sums[c.Rank] += c.Contexts[0].Rmw(th, ep, counter, FetchAdd, 1, 0)
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	final := r.m.Space(0).GetInt64(counter)
	want := int64((procs - 1) * opsEach)
	if final != want {
		t.Fatalf("counter = %d, want %d", final, want)
	}
	// Fetch-and-add returns every value 0..want-1 exactly once, so the
	// sum of all returned values is want*(want-1)/2.
	var total int64
	for _, s := range sums {
		total += s
	}
	if total != want*(want-1)/2 {
		t.Fatalf("prev-value sum = %d, want %d", total, want*(want-1)/2)
	}
}

func TestRmwSwapAndCompareSwap(t *testing.T) {
	r := newRig(t, 2, 1, 1)
	var addr mem.Addr
	r.spawnAll(1, func(th *sim.Thread, c *Client) {
		switch c.Rank {
		case 1:
			addr = c.Space.Alloc(8)
			c.Space.SetInt64(addr, 100)
			for i := 0; i < 500; i++ {
				c.Contexts[0].Progress(th)
				th.Sleep(10 * sim.Microsecond)
			}
		case 0:
			th.Sleep(100 * sim.Microsecond)
			ep := c.CreateEndpoint(th, 1, 0)
			x := &c.Contexts[0]

			prev := x.Rmw(th, ep, addr, Swap, 200, 0)
			if prev != 100 {
				t.Errorf("swap prev = %d, want 100", prev)
			}

			prev = x.Rmw(th, ep, addr, CompareSwap, 300, 999) // mismatch
			if prev != 200 {
				t.Errorf("cas prev = %d, want 200", prev)
			}

			prev = x.Rmw(th, ep, addr, CompareSwap, 300, 200) // match
			if prev != 200 {
				t.Errorf("cas prev = %d, want 200", prev)
			}
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if v := r.m.Space(1).GetInt64(addr); v != 300 {
		t.Fatalf("final value %d, want 300", v)
	}
}

func TestFlushOrdersAfterPut(t *testing.T) {
	r := newRig(t, 2, 1, 1)
	var remote mem.Addr
	r.spawnAll(1, func(th *sim.Thread, c *Client) {
		switch c.Rank {
		case 1:
			remote = c.Space.Alloc(1 << 20)
			th.Sleep(50 * sim.Millisecond)
		case 0:
			th.Sleep(sim.Millisecond)
			n := 1 << 20 // large put so the flush could overtake a naive model
			local := c.Space.Alloc(n)
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = 0xAB
			}
			c.Space.CopyIn(local, buf)
			ep := c.CreateEndpoint(th, 1, 0)
			x := &c.Contexts[0]
			putComp := sim.NewCompletion(r.k)
			x.RdmaPut(th, ep, local, remote, n, putComp)
			flushComp := sim.NewCompletion(r.k)
			x.FlushRemote(th, ep, flushComp)
			x.WaitLocal(th, flushComp)
			// At flush completion, the full payload must be visible remotely.
			tail := r.m.Space(1).Bytes(remote+mem.Addr(n-1), 1)
			if tail[0] != 0xAB {
				t.Error("flush completed before put data landed")
			}
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedContextLockContentionWithProgressThread(t *testing.T) {
	r := newRig(t, 2, 1, 1)
	stop := false
	r.spawnAll(1, func(th *sim.Thread, c *Client) {
		switch c.Rank {
		case 1:
			x := &c.Contexts[0]
			// An async progress thread sharing the single context.
			prog := r.k.Spawn("async-1", func(pt *sim.Thread) {
				for !stop {
					x.Lock.Lock(pt)
					x.Advance(pt)
					x.subscribe(pt)
					x.Lock.Unlock(pt)
					if stop {
						break
					}
					pt.Park()
				}
			})
			// Main thread hammers the same context with Progress calls
			// interleaved with "compute".
			for i := 0; i < 500; i++ {
				x.Progress(th)
				th.Sleep(3 * sim.Microsecond)
			}
			stop = true
			r.k.Wake(prog)
		case 0:
			th.Sleep(100 * sim.Microsecond)
			ep := c.CreateEndpoint(th, 1, 0)
			addrOnPeer := r.m.Space(1).Alloc(8) // counter hosted at rank 1
			for i := 0; i < 50; i++ {
				c.Contexts[0].Rmw(th, ep, addrOnPeer, FetchAdd, 1, 0)
			}
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	lock := &r.m.Client(1).Contexts[0].Lock
	if lock.Contended == 0 {
		t.Fatal("expected lock contention between main and progress thread")
	}
	if got := r.m.Space(1).GetInt64(8 /*unused*/); got != 0 {
		_ = got // address bookkeeping is validated elsewhere
	}
}

func TestRegionRegistry(t *testing.T) {
	r := newRig(t, 1, 1, 1)
	r.spawnAll(1, func(th *sim.Thread, c *Client) {
		a := c.Space.Alloc(1024)
		c.MaxRegions = 2
		r1 := c.RegisterMemory(th, a, 512)
		if r1 == nil {
			t.Fatal("first registration failed")
		}
		if got := c.FindRegion(a+100, 200); got != r1 {
			t.Fatal("FindRegion missed covering region")
		}
		if got := c.FindRegion(a+400, 200); got != nil {
			t.Fatal("FindRegion matched out-of-bounds range")
		}
		b := c.Space.Alloc(64)
		if c.RegisterMemory(th, b, 64) == nil {
			t.Fatal("second registration failed")
		}
		d := c.Space.Alloc(64)
		if c.RegisterMemory(th, d, 64) != nil {
			t.Fatal("registration beyond MaxRegions must fail")
		}
		c.DeregisterMemory(r1)
		if c.FindRegion(a, 512) != nil {
			t.Fatal("region survives deregistration")
		}
		if c.RegionCount() != 1 {
			t.Fatalf("region count %d, want 1", c.RegionCount())
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCreationCostsMatchTableII(t *testing.T) {
	k := sim.NewKernel()
	tor := topology.ForProcs(1, 1)
	p := network.DefaultParams()
	p.JitterFrac = 0
	m := NewMachine(k, tor, p, 1, nil)
	var ctxTime, epTime, regTime sim.Time
	k.Spawn("r0", func(th *sim.Thread) {
		c := m.NewClient(th, 0)
		t0 := th.Now()
		c.CreateContexts(th, 1)
		ctxTime = th.Now() - t0
		t0 = th.Now()
		c.CreateEndpoint(th, 0, 0)
		epTime = th.Now() - t0
		a := c.Space.Alloc(4096)
		t0 = th.Now()
		c.RegisterMemory(th, a, 4096)
		regTime = th.Now() - t0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ctxTime < 3821*sim.Microsecond || ctxTime > 4271*sim.Microsecond {
		t.Fatalf("context creation %s outside paper range 3821-4271us", sim.FormatTime(ctxTime))
	}
	if epTime != 300 {
		t.Fatalf("endpoint creation %dns, want 300 (β=0.3us)", epTime)
	}
	if regTime != 43*sim.Microsecond {
		t.Fatalf("region creation %s, want 43us (δ)", sim.FormatTime(regTime))
	}
}

func TestAdvanceWithoutLockPanics(t *testing.T) {
	r := newRig(t, 1, 1, 1)
	r.spawnAll(1, func(th *sim.Thread, c *Client) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		c.Contexts[0].Advance(th)
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateDispatchPanics(t *testing.T) {
	r := newRig(t, 1, 1, 1)
	r.spawnAll(1, func(th *sim.Thread, c *Client) {
		h := oneStep(func(*sim.Thread, *Context, *AMessage) {})
		c.Contexts[0].SetDispatch(DispatchUserBase, h)
		for _, id := range []int{DispatchUserBase, -1, DispatchLimit} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("SetDispatch(%d): expected panic", id)
					}
				}()
				c.Contexts[0].SetDispatch(id, h)
			}()
		}
		c.Contexts[0].SetDispatch(DispatchLimit-1, h) // the last slot is usable
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestIndependentContextsProgressIndependently(t *testing.T) {
	r := newRig(t, 2, 1, 2)
	const dispatchTest = DispatchUserBase
	var servedOn1 sim.Time
	r.spawnAll(2, func(th *sim.Thread, c *Client) {
		switch c.Rank {
		case 1:
			c.Contexts[1].SetDispatch(dispatchTest, oneStep(func(th *sim.Thread, x *Context, msg *AMessage) {
				servedOn1 = th.Now()
			}))
			// Main thread holds context 0's lock "forever" while an async
			// thread advances context 1: the AM must still be served.
			x1 := &c.Contexts[1]
			r.k.Spawn("async", func(pt *sim.Thread) {
				for pt.Now() < 3*sim.Millisecond {
					x1.Progress(pt)
					pt.Sleep(5 * sim.Microsecond)
				}
			})
			x0 := &c.Contexts[0]
			x0.Lock.Lock(th)
			th.Sleep(2 * sim.Millisecond)
			x0.Lock.Unlock(th)
		case 0:
			th.Sleep(100 * sim.Microsecond)
			ep := c.CreateEndpoint(th, 1, 1) // target the async context
			c.Contexts[0].SendAM(th, ep, dispatchTest, nil, []byte("x"))
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if servedOn1 == 0 {
		t.Fatal("AM never served")
	}
	if servedOn1 >= 2*sim.Millisecond {
		t.Fatalf("AM served at %s: context 1 was blocked by context 0's lock",
			sim.FormatTime(servedOn1))
	}
}
