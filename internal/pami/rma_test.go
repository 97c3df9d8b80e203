package pami

import (
	"bytes"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/network"
	"repro/internal/sim"
)

// pattern returns n bytes that differ from every other seed's pattern in
// every position.
func pattern(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed ^ byte(i) ^ byte(i>>8)
	}
	return b
}

// expectBytes reports the first byte of [a, a+len(want)) in s that is not
// want's.
func expectBytes(t *testing.T, what string, s *mem.Space, a mem.Addr, want []byte) {
	t.Helper()
	got := s.Bytes(a, len(want))
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: byte %d is %#x, want %#x", what, i, got[i], want[i])
			return
		}
	}
}

// runPair runs two ranks on adjacent nodes, under plan's injector when it
// is not nil. Rank 1 allocates remoteBytes and runs target; rank 0 makes
// an endpoint to it and runs origin at 1 ms of simulated time.
func runPair(t *testing.T, plan *fault.Plan, remoteBytes int,
	target func(th *sim.Thread, c *Client, remote mem.Addr),
	origin func(th *sim.Thread, x *Context, ep Endpoint, remote mem.Addr)) *Machine {
	t.Helper()
	r := newRig(t, 2, 1, 1)
	if plan != nil {
		r.m.Net.SetFault(fault.NewInjector(r.k, plan, 1, nil))
	}
	var remote mem.Addr
	r.spawnAll(1, func(th *sim.Thread, c *Client) {
		if c.Rank == 1 {
			remote = c.Space.Alloc(remoteBytes)
			if target != nil {
				target(th, c, remote)
			}
			return
		}
		ep := c.CreateEndpoint(th, 1, 0)
		th.Sleep(sim.Millisecond - th.Now())
		origin(th, &c.Contexts[0], ep, remote)
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	return r.m
}

// TestRdmaPayloadOwnership holds the RDMA flights to the buffer semantics
// the paper's protocols rely on, at 64 KiB, so that every payload is a
// recycled one. Each check fails on one wrong line in rma.go: handing the
// payload back when the flight is sent instead of after its CopyIn fails
// "source reuse" and "chunks" (the next capture overwrites bytes still on
// their way); recycling under an injector fails "duplicates" (the second
// copy lands another flight's bytes); capturing a get at issue instead of
// at the turnaround fails "get at stream time".
func TestRdmaPayloadOwnership(t *testing.T) {
	const n = 64 << 10
	if n < mem.PoolMin {
		t.Fatalf("%d-byte payloads are not recycled (PoolMin %d): the test would miss the pool", n, mem.PoolMin)
	}

	// A put owns its bytes from injection: the source is the user's again
	// once the put completes locally. An earlier put holds the messaging
	// unit, so this one's bytes are still on their way when it completes —
	// and the earlier one's payload is the buffer that a flight which let
	// go of its own too soon hands to the next capture.
	t.Run("source reuse", func(t *testing.T) {
		runPair(t, nil, 2*n, nil, func(th *sim.Thread, x *Context, ep Endpoint, remote mem.Addr) {
			s, tgt, k := x.Client.Space, x.Client.M.Space(1), x.Client.M.K
			first, src := s.Alloc(n), s.Alloc(n)
			s.CopyIn(first, pattern(9, n))
			s.CopyIn(src, pattern(1, n))
			firstDone, done := sim.NewCompletion(k), sim.NewCompletion(k)
			x.RdmaPut(th, ep, first, remote+n, n, firstDone)
			x.RdmaPut(th, ep, src, remote, n, done)
			x.WaitLocal(th, done)
			if bytes.Equal(tgt.Bytes(remote, n), pattern(1, n)) {
				t.Fatal("the put landed before it completed locally: the rewrite below would prove nothing")
			}
			s.CopyIn(src, pattern(2, n))
			x.WaitLocal(th, firstDone)
			th.Sleep(sim.Millisecond)
			expectBytes(t, "the put", tgt, remote, pattern(1, n))
			expectBytes(t, "the put before it", tgt, remote+n, pattern(9, n))
		})
	})

	// A get's bytes are the target's at the turnaround: a rewrite while
	// the request is on its way shows in what lands, one after the
	// turnaround does not.
	t.Run("get at stream time", func(t *testing.T) {
		const issue = sim.Millisecond
		runPair(t, nil, n, func(th *sim.Thread, c *Client, remote mem.Addr) {
			p := c.M.P
			sent := issue + p.CPUInject
			turn := sent + c.M.Net.OneWayLatency(c.M.Client(0).Node, c.Node, rmaControlBytes, network.Control) + p.MUTurnaround
			c.Space.CopyIn(remote, pattern(1, n))
			th.Sleep(sent + 100 - th.Now()) // the request is on its way
			c.Space.CopyIn(remote, pattern(2, n))
			th.Sleep(turn + 1000 - th.Now()) // the reply is streaming
			c.Space.CopyIn(remote, pattern(3, n))
		}, func(th *sim.Thread, x *Context, ep Endpoint, remote mem.Addr) {
			local := x.Client.Space.Alloc(n)
			done := sim.NewCompletion(x.Client.M.K)
			x.RdmaGet(th, ep, local, remote, n, done)
			x.WaitLocal(th, done)
			expectBytes(t, "the get", x.Client.Space, local, pattern(2, n))
			expectBytes(t, "the target after the get", x.Client.M.Space(1), remote, pattern(3, n))
		})
	})

	// Eight chunks of one op set in flight at once, each from its own
	// source to its own target: every one lands its own bytes.
	t.Run("chunks", func(t *testing.T) {
		const chunks = 8
		runPair(t, nil, chunks*n, nil, func(th *sim.Thread, x *Context, ep Endpoint, remote mem.Addr) {
			s := x.Client.Space
			local := s.Alloc(chunks * n)
			for i := 0; i < chunks; i++ {
				s.CopyIn(local+mem.Addr(i*n), pattern(byte(10+i), n))
			}
			done := sim.NewCompletion(x.Client.M.K)
			set := new(OpSet)
			x.InitOpSet(set, done)
			for i := 0; i < chunks; i++ {
				set.RdmaPut(th, ep, local+mem.Addr(i*n), remote+mem.Addr(i*n), n)
			}
			set.Arm()
			x.WaitLocal(th, done)
			th.Sleep(sim.Millisecond)
			for i := 0; i < chunks; i++ {
				expectBytes(t, "chunk "+string(rune('0'+i)), x.Client.M.Space(1), remote+mem.Addr(i*n), pattern(byte(10+i), n))
			}
		})
	})

	// Every message delivered twice: a put lands twice and a get's request
	// turns around twice, each reply landing twice. Every copy carries the
	// bytes of its own flight, although the next flight starts between
	// the first copy and the second.
	t.Run("duplicates", func(t *testing.T) {
		plan := fault.NewPlan(1).Duplicate(fault.Any, fault.Any, 0, sim.Second, 1)
		m := runPair(t, plan, 3*n, func(th *sim.Thread, c *Client, remote mem.Addr) {
			c.Space.CopyIn(remote+2*n, pattern(3, n))
		}, func(th *sim.Thread, x *Context, ep Endpoint, remote mem.Addr) {
			s, tgt, k := x.Client.Space, x.Client.M.Space(1), x.Client.M.K
			local := s.Alloc(3 * n)
			s.CopyIn(local, pattern(1, n))
			s.CopyIn(local+n, pattern(2, n))
			for i, issue := range []func(*sim.Completion){
				func(c *sim.Completion) { x.RdmaPut(th, ep, local, remote, n, c) },
				func(c *sim.Completion) { x.RdmaPut(th, ep, local+n, remote+n, n, c) },
				func(c *sim.Completion) { x.RdmaGet(th, ep, local+2*n, remote+2*n, n, c) },
			} {
				done := sim.NewCompletion(k)
				issue(done)
				x.WaitLocal(th, done)
				if i == 0 {
					expectBytes(t, "the first put, first copy", tgt, remote, pattern(1, n))
				}
			}
			th.Sleep(sim.Millisecond)
			expectBytes(t, "the first put", tgt, remote, pattern(1, n))
			expectBytes(t, "the second put", tgt, remote+n, pattern(2, n))
			expectBytes(t, "the get", s, local+2*n, pattern(3, n))
		})
		// Two puts, a get request and its two replies.
		if got := m.Net.Fault().Duplicated; got != 5 {
			t.Errorf("%d messages duplicated, want 5", got)
		}
	})
}
