package pami

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

// keptAM runs two ranks and sends one active message per payload from
// rank 0 to rank 1, each a borrowed copy of its pattern, header {i}.
// Rank 1 advances its context once, after every message has arrived. Its handler hands each delivery, as it is and without a
// copy, to handle: the rule a real handler keeps (AMHandler) is what this
// breaks on purpose.
func keptAM(t *testing.T, payloads [][]byte, handle func(i int, data []byte)) {
	t.Helper()
	const dispatchKeep = DispatchUserBase
	runPair(t, nil, 64, func(th *sim.Thread, c *Client, _ mem.Addr) {
		c.Contexts[0].SetDispatch(dispatchKeep, func(_ *sim.Thread, _ *Context, msg *AMessage) {
			handle(int(msg.Hdr[0]), msg.Data)
		})
		th.Sleep(5 * sim.Millisecond)
		c.Contexts[0].Progress(th)
	}, func(th *sim.Thread, x *Context, ep Endpoint, _ mem.Addr) {
		s := x.Client.Space
		a := s.Alloc(len(payloads[0]))
		for i, p := range payloads {
			s.CopyIn(a, p)
			x.SendAM(th, ep, dispatchKeep, []int64{int64(i)}, x.Client.Bufs().Borrow(s, a, len(p)))
		}
	})
}

// TestKeptPayloadIsPoisoned: a handler that keeps msg.Data and reads it
// after a later delivery reads Poison under the race detector — the
// payload went back to its lane's classes when its handler returned — so
// a kept payload anywhere in the tree fails `go test -race`. Without -race the
// bytes are not poisoned, and the test has nothing to see.
func TestKeptPayloadIsPoisoned(t *testing.T) {
	if !raceEnabled {
		t.Skip("Return poisons buffers only under the race detector")
	}
	var kept []byte
	seen := 0
	keptAM(t, [][]byte{pattern(1, 40), nil}, func(i int, data []byte) {
		seen++
		if i == 0 {
			kept = data
			return
		}
		for j, v := range kept {
			if v != mem.Poison {
				t.Fatalf("kept payload byte %d is %#x after its handler returned, want Poison %#x", j, v, mem.Poison)
			}
		}
	})
	if seen != 2 {
		t.Fatalf("%d deliveries, want 2", seen)
	}
}

// TestRecyclingUnderDuplicationPoisonsNothing: with every message
// delivered twice, flights and payloads still recycle, each once its last
// copy is done with it, and nothing reads one after that. The two ranks
// share a node, so the lane's lists hand what one message freed to the
// next. Active messages go out back to back while the target serves them
// as they come: each copy of each must reach its handler with the bytes
// it was sent (the handler reads them in the call and keeps nothing, per
// AMHandler), though the flights and payloads serving them are reused all
// along — a flight freed after its first copy would serve its second copy
// another message's bytes, or, under the race detector, Poison. Gets and
// puts of one size class follow, each on flights and payloads the one
// before it freed: each request turns around twice and each reply lands
// twice; each put arrives and completes twice, and its completion waits
// for its own bytes. Two chunks of AM flights serve the 64 messages, one
// chunk each the gets and puts.
func TestRecyclingUnderDuplicationPoisonsNothing(t *testing.T) {
	plan := fault.NewPlan(1).Duplicate(fault.Any, fault.Any, 0, sim.Second, 1)
	const msgs, n = 64, 512
	payloads := make([][]byte, msgs)
	for i := range payloads {
		payloads[i] = pattern(byte(i), 40)
	}
	delivered := make([]int, msgs)
	r := newRig(t, 2, 2, 1)
	r.m.Net.SetFault(fault.NewInjector(r.k, plan, 1, nil))
	const dispatchCheck = DispatchUserBase
	r.spawnAll(1, func(th *sim.Thread, c *Client) {
		x, s := &c.Contexts[0], c.Space
		a := s.Alloc(4 * n) // the same address on both ranks
		if c.Rank == 1 {
			x.SetDispatch(dispatchCheck, func(_ *sim.Thread, _ *Context, msg *AMessage) {
				i := msg.Hdr[0]
				if !bytes.Equal(msg.Data, payloads[i]) {
					t.Errorf("a copy of message %d reached its handler with other bytes", i)
				}
				delivered[i]++
			})
			s.CopyIn(a, pattern(100, n))
			s.CopyIn(a+n, pattern(101, n))
			for th.Now() < 2*sim.Millisecond {
				x.Progress(th)
				th.Sleep(sim.Microsecond)
			}
			return
		}
		ep := c.CreateEndpoint(th, 1, 0)
		th.Sleep(sim.Millisecond - th.Now())
		for i, p := range payloads {
			s.CopyIn(a, p)
			x.SendAM(th, ep, dispatchCheck, []int64{int64(i)}, c.Bufs().Borrow(s, a, len(p)))
		}
		for i := 0; i < 2; i++ {
			done := sim.NewCompletion(r.k)
			x.RdmaGet(th, ep, a+2*n+mem.Addr(i*n), a+mem.Addr(i*n), n, done)
			x.WaitLocal(th, done)
			expectBytes(t, fmt.Sprintf("get %d at its completion", i), s, a+2*n+mem.Addr(i*n), pattern(byte(100+i), n))
		}
		for i := 0; i < 2; i++ {
			off := mem.Addr(i * n)
			s.CopyIn(a+off, pattern(byte(5+i), n))
			done := sim.NewCompletion(r.k)
			x.RdmaPut(th, ep, a+off, a+2*n+off, n, done)
			x.WaitLocal(th, done)
			expectBytes(t, fmt.Sprintf("put %d at its completion", i), r.m.Space(1), a+2*n+off, pattern(byte(5+i), n))
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, d := range delivered {
		if d != 2 {
			t.Errorf("message %d: %d deliveries, want 2", i, d)
		}
	}
	// Every message twice: the AMs, two get requests and their four
	// replies, two puts.
	if got, want := r.m.Net.Fault().Duplicated, uint64(msgs+6+2); got != want {
		t.Errorf("%d messages duplicated, want %d", got, want)
	}
	sh := r.m.shelf
	if cut := [3]int{sh.am.Cut(), sh.put.Cut(), sh.get.Cut()}; cut != [3]int{2 * flightBatch, flightBatch, flightBatch} {
		t.Errorf("%v AM, put and get flights cut, want %v: flights are recycled", cut, [3]int{2 * flightBatch, flightBatch, flightBatch})
	}
}

// TestChaosCutsPeakFlights: a world under an injector recycles its flights
// as a healthy one does, so the flights its shelf cuts are bounded by the
// most it had in flight at once plus the copies the network dropped —
// each freed by its last copy, a dropped one at the world's end — never
// by the messages it sent. After a healthy world primed the shelf, a
// chaos world with every message duplicated and none dropped sends three
// chunks' worth of each kind: the target serves no active message until
// all have arrived, so they peak at all of them in flight, while puts and
// gets go one at a time and reuse the chunk the healthy world cut.
func TestChaosCutsPeakFlights(t *testing.T) {
	shelf := NewShelf()
	cut := func() [3]int { return [3]int{shelf.am.Cut(), shelf.put.Cut(), shelf.get.Cut()} }
	world := func(plan *fault.Plan, rounds int) {
		t.Helper()
		k := sim.NewKernel()
		r := &rig{k: k, m: NewMachine(k, topology.ForProcs(2, 1), network.DefaultParams(), 1, shelf)}
		if plan != nil {
			r.m.Net.SetFault(fault.NewInjector(k, plan, 1, nil))
		}
		const dispatchSink = DispatchUserBase
		r.spawnAll(1, func(th *sim.Thread, c *Client) {
			x, a := &c.Contexts[0], c.Space.Alloc(64) // the same address on both ranks
			if c.Rank == 1 {
				x.SetDispatch(dispatchSink, func(*sim.Thread, *Context, *AMessage) {})
				th.Sleep(5 * sim.Millisecond)
				x.Progress(th)
				return
			}
			ep := c.CreateEndpoint(th, 1, 0)
			for range rounds {
				x.SendAM(th, ep, dispatchSink, nil, c.Bufs().Buf(8))
				done := sim.NewCompletion(k)
				x.RdmaPut(th, ep, a, a, 64, done)
				x.WaitLocal(th, done)
				done = sim.NewCompletion(k)
				x.RdmaGet(th, ep, a, a, 64, done)
				x.WaitLocal(th, done)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	world(nil, flightBatch)
	primed := cut()
	if primed != [3]int{flightBatch, flightBatch, flightBatch} {
		t.Fatalf("a healthy run cut %v AM, put and get flights, want one chunk of each", primed)
	}
	const rounds = 3 * flightBatch
	world(fault.NewPlan(1).Duplicate(fault.Any, fault.Any, 0, sim.Second, 1), rounds)
	if got, want := cut(), [3]int{rounds, flightBatch, flightBatch}; got != want {
		t.Errorf("a chaos run left %v AM, put and get flights cut, want %v: its peak in flight", got, want)
	}
}
