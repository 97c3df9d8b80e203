package pami

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
)

// keptAM runs two ranks under plan (nil: healthy) and sends one active
// message per payload from rank 0 to rank 1, each a borrowed copy of its
// pattern, header {i}. Rank 1 advances its context once, after every copy
// has arrived. Its handler hands each delivery, as it is and without a
// copy, to handle: the rule a real handler keeps (AMHandler) is what this
// breaks on purpose.
func keptAM(t *testing.T, plan *fault.Plan, payloads [][]byte, handle func(i int, data []byte)) {
	t.Helper()
	const dispatchKeep = DispatchUserBase
	runPair(t, plan, 64, func(th *sim.Thread, c *Client, _ mem.Addr) {
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
			x.SendAM(th, ep, dispatchKeep, []int64{int64(i)}, s.Borrow(a, len(p)))
		}
	})
}

// TestKeptPayloadIsPoisoned: a handler that keeps msg.Data and reads it
// after a later delivery reads Poison under the race detector — the
// payload went back to the pool when its handler returned — so a kept
// payload anywhere in the tree fails `go test -race`. Without -race the
// bytes are not poisoned, and the test has nothing to see.
func TestKeptPayloadIsPoisoned(t *testing.T) {
	if !raceEnabled {
		t.Skip("Return poisons buffers only under the race detector")
	}
	var kept []byte
	seen := 0
	keptAM(t, nil, [][]byte{pattern(1, 40), nil}, func(i int, data []byte) {
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

// TestNoRecyclingUnderDuplication: with every message delivered twice,
// nothing is recycled. Two active messages of one size class: each copy of
// each one hands its handler the bytes it was sent, and what the handler
// kept still holds them once the run is over (a payload recycled after the
// first copy would carry the second message's bytes, or Poison). Two gets
// from one size class: each request turns around twice and each reply
// lands twice, on a flight no later get has taken over. Two puts: each
// arrives and completes twice, and the second put's completion waits for
// its own bytes (a first flight recycled after its first copy would hand
// its second arrival and completion to the second put, finishing it before
// its bytes landed, or fire on a reset flight).
func TestNoRecyclingUnderDuplication(t *testing.T) {
	plan := fault.NewPlan(1).Duplicate(fault.Any, fault.Any, 0, sim.Second, 1)
	payloads := [][]byte{pattern(1, 40), pattern(2, 40)}
	var kept [][]byte
	var from []int
	keptAM(t, plan, payloads, func(i int, data []byte) {
		if !bytes.Equal(data, payloads[i]) {
			t.Errorf("message %d delivered with another message's bytes", i)
		}
		kept, from = append(kept, data), append(from, i)
	})
	if len(kept) != 4 {
		t.Fatalf("%d deliveries, want 4", len(kept))
	}
	for j, data := range kept {
		if !bytes.Equal(data, payloads[from[j]]) {
			t.Errorf("delivery %d of message %d: its payload was reused", j, from[j])
		}
	}

	const n = 512
	m := runPair(t, plan, 2*n, func(th *sim.Thread, c *Client, remote mem.Addr) {
		c.Space.CopyIn(remote, pattern(3, n))
		c.Space.CopyIn(remote+n, pattern(4, n))
	}, func(th *sim.Thread, x *Context, ep Endpoint, remote mem.Addr) {
		s := x.Client.Space
		local := s.Alloc(2 * n)
		for i := 0; i < 2; i++ {
			done := sim.NewCompletion(x.Client.M.K)
			x.RdmaGet(th, ep, local+mem.Addr(i*n), remote+mem.Addr(i*n), n, done)
			x.WaitLocal(th, done)
		}
		th.Sleep(sim.Millisecond)
		expectBytes(t, "the first get", s, local, pattern(3, n))
		expectBytes(t, "the second get", s, local+n, pattern(4, n))
	})
	// Two requests, each turned around twice, and their four replies.
	if got := m.Net.Fault().Duplicated; got != 6 {
		t.Errorf("%d messages duplicated, want 6", got)
	}

	m = runPair(t, plan, 2*n, nil, func(th *sim.Thread, x *Context, ep Endpoint, remote mem.Addr) {
		s, tgt := x.Client.Space, x.Client.M.Space(1)
		local := s.Alloc(2 * n)
		for i := 0; i < 2; i++ {
			off := mem.Addr(i * n)
			s.CopyIn(local+off, pattern(byte(5+i), n))
			done := sim.NewCompletion(x.Client.M.K)
			x.RdmaPut(th, ep, local+off, remote+off, n, done)
			x.WaitLocal(th, done)
			expectBytes(t, fmt.Sprintf("put %d at its completion", i), tgt, remote+off, pattern(byte(5+i), n))
		}
		th.Sleep(sim.Millisecond)
	})
	if got := m.Net.Fault().Duplicated; got != 2 {
		t.Errorf("%d puts duplicated, want 2", got)
	}
}
