package pami

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
)

// TestWaitLoop drives the one wait loop through its four entry points:
// what ends it (a completion or a predicate) by whether it has a deadline
// and which of the two comes first. A second thread nudges the context
// twenty times before anything ends — every nudge is a spurious wake — and
// takes the context lock each time, which it can only do uncontended if
// the waiter let go of it before parking.
func TestWaitLoop(t *testing.T) {
	const (
		nudges = 20
		endAt  = 50 * sim.Microsecond
		early  = 30 * sim.Microsecond // a deadline the end misses
		late   = 80 * sim.Microsecond // one it meets
	)
	for _, tc := range []struct {
		name       string
		pred       bool
		deadline   sim.Time // 0: none
		want       bool
		returnedAt sim.Time
	}{
		{"completion", false, 0, true, endAt},
		{"completion, deadline met", false, late, true, endAt},
		{"completion, deadline missed", false, early, false, early},
		{"predicate", true, 0, true, endAt},
		{"predicate, deadline met", true, late, true, endAt},
		{"predicate, deadline missed", true, early, false, early},
	} {
		r := newRig(t, 1, 1, 1)
		r.spawnAll(1, func(th *sim.Thread, c *Client) {
			x := &c.Contexts[0]
			comp := sim.NewCompletion(r.k)
			flag := false
			r.k.Spawn("nudger", func(nt *sim.Thread) {
				for i := 0; i < nudges; i++ {
					nt.Sleep(sim.Microsecond)
					x.Lock.Lock(nt)
					x.Lock.Unlock(nt)
					x.Nudge()
				}
				nt.Sleep(endAt - nt.Now())
				flag = true
				comp.Finish()
				x.Nudge()
			})
			got := true
			switch {
			case tc.pred && tc.deadline == 0:
				x.WaitCond(th, func() bool { return flag })
			case tc.pred:
				got = x.WaitCondUntil(th, func() bool { return flag }, tc.deadline)
			case tc.deadline == 0:
				x.WaitLocal(th, comp)
			default:
				got = x.WaitLocalUntil(th, comp, tc.deadline)
			}
			if got != tc.want || th.Now() != tc.returnedAt {
				t.Errorf("%s: returned %v at %d, want %v at %d", tc.name, got, th.Now(), tc.want, tc.returnedAt)
			}
			if x.Lock.Held(th) {
				t.Errorf("%s: returned holding the context lock", tc.name)
			}
			if x.Lock.Contended != 0 {
				t.Errorf("%s: the nudger waited for the lock %d times: the waiter parked holding it", tc.name, x.Lock.Contended)
			}
		})
		if err := r.k.Run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// TestOpSetDroppedChunkStaysPending: under an injector a chunk completes
// when it lands, so a set that lost one never reports done — the run ends
// with the waiter named in a DeadlockError, not in a silent success on a
// transfer that did not arrive.
func TestOpSetDroppedChunkStaysPending(t *testing.T) {
	const chunks, dropped, dropAt = 4, 2, 2 * sim.Millisecond
	for _, tc := range []struct {
		name  string
		chunk func(set *OpSet, th *sim.Thread, ep Endpoint, local, remote mem.Addr)
	}{
		{"put", func(set *OpSet, th *sim.Thread, ep Endpoint, local, remote mem.Addr) {
			set.RdmaPut(th, ep, local, remote, 512)
		}},
		{"get", func(set *OpSet, th *sim.Thread, ep Endpoint, local, remote mem.Addr) {
			set.RdmaGet(th, ep, local, remote, 512)
		}},
	} {
		r := newRig(t, 2, 1, 1)
		// Rank 1's node is dead for the one instant the third chunk is
		// injected at.
		r.m.Net.SetFault(fault.NewInjector(r.k, fault.NewPlan(1).NodeDown(1, dropAt, 1), 1, nil))
		comp := sim.NewCompletion(r.k)
		var remote mem.Addr
		r.spawnAll(1, func(th *sim.Thread, c *Client) {
			if c.Rank == 1 {
				remote = c.Space.Alloc(chunks * 512)
				return
			}
			th.Sleep(sim.Millisecond)
			local := c.Space.Alloc(chunks * 512)
			ep := c.CreateEndpoint(th, 1, 0)
			x := &c.Contexts[0]
			set := new(OpSet)
			x.InitOpSet(set, comp)
			for i := 0; i < chunks; i++ {
				if i == dropped {
					th.Sleep(dropAt - r.m.P.CPUInject - th.Now())
				}
				off := mem.Addr(i * 512)
				tc.chunk(set, th, ep, local+off, remote+off)
			}
			set.Arm()
			x.WaitLocal(th, comp)
			t.Errorf("%s: the wait on a set that lost a chunk returned", tc.name)
		})
		var dead *sim.DeadlockError
		if err := r.k.Run(); !errors.As(err, &dead) {
			t.Fatalf("%s: run ended with %v, want a deadlock", tc.name, err)
		}
		if len(dead.Blocked) != 1 || !strings.HasPrefix(dead.Blocked[0], "main-00(") {
			t.Errorf("%s: blocked threads %v, want rank 0's main thread alone", tc.name, dead.Blocked)
		}
		if comp.Done() || r.m.Net.Fault().Dropped != 1 {
			t.Errorf("%s: completion done=%v after %d drops, want pending after 1", tc.name, comp.Done(), r.m.Net.Fault().Dropped)
		}
	}
}

// allocRuns is the AllocsPerRun count of the pins below; oneShots hands
// out completions made up front, one per cycle (a completion finishes
// once), the warm-up cycle and AllocsPerRun's own included.
const allocRuns = 100

func oneShots(k *sim.Kernel) func() *sim.Completion {
	comps := make([]*sim.Completion, allocRuns+2)
	for i := range comps {
		comps[i] = sim.NewCompletion(k)
	}
	return func() *sim.Completion {
		c := comps[0]
		comps = comps[1:]
		return c
	}
}

// finishAt is a pre-built event that retires one completion through a
// context's progress engine.
type finishAt struct {
	x    *Context
	comp *sim.Completion
}

func (f *finishAt) Fire() { f.x.postCompletion(f.comp) }

// TestWaitLocalAllocFree: a blocking wait on one completion — advance,
// subscribe, register, unlock, park, wake, serve the retirement — allocates
// nothing: the park is a coroutine switch and the registrations land in
// storage the context and the completion already have.
func TestWaitLocalAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	r := newRig(t, 1, 1, 1)
	r.spawnAll(1, func(th *sim.Thread, c *Client) {
		x := &c.Contexts[0]
		ev := &finishAt{x: x}
		next := oneShots(r.k)
		cycle := func() {
			ev.comp = next()
			c.Ln.AtAction(sim.Microsecond, ev)
			x.WaitLocal(th, ev.comp)
		}
		cycle() // warm-up: the waiter slice, the work queue, the event heap
		if n := testing.AllocsPerRun(allocRuns, cycle); n != 0 {
			t.Errorf("a blocking wait on one completion allocates %v times, want 0", n)
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRdmaFlightAllocBound pins what one RMA flight costs the host, issue
// to retired completion, whichever landing it ticks: nothing. Payloads of
// every size are recycled, a get flight once it lands, a put flight once
// both its arrival and its local completion have fired (they fire in two
// lanes, and the second recycles it), and a chunk's OpSet lives in storage
// the caller owns — here one set reused, as an armci operation slot
// reuses its own.
func TestRdmaFlightAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const big = 64 << 10
	r := newRig(t, 2, 1, 1)
	var remote mem.Addr
	r.spawnAll(1, func(th *sim.Thread, c *Client) {
		if c.Rank == 1 {
			remote = c.Space.Alloc(big)
			return
		}
		th.Sleep(sim.Millisecond)
		local := c.Space.Alloc(big)
		ep := c.CreateEndpoint(th, 1, 0)
		x := &c.Contexts[0]
		var set OpSet // the caller's storage, as an operation slot holds it
		chunk := func(comp *sim.Completion, issue func(*OpSet)) {
			x.InitOpSet(&set, comp)
			issue(&set)
			set.Arm()
		}
		for _, tc := range []struct {
			name  string
			bound float64
			issue func(comp *sim.Completion)
		}{
			{"put", 0, func(comp *sim.Completion) { x.RdmaPut(th, ep, local, remote, 512, comp) }},
			{"get", 0, func(comp *sim.Completion) { x.RdmaGet(th, ep, local, remote, 512, comp) }},
			{"flush", 0, func(comp *sim.Completion) { x.FlushRemote(th, ep, comp) }},
			{"put chunk", 0, func(comp *sim.Completion) {
				chunk(comp, func(set *OpSet) { set.RdmaPut(th, ep, local, remote, 512) })
			}},
			{"get chunk", 0, func(comp *sim.Completion) {
				chunk(comp, func(set *OpSet) { set.RdmaGet(th, ep, local, remote, 512) })
			}},
			{"put 64 KiB", 0, func(comp *sim.Completion) { x.RdmaPut(th, ep, local, remote, big, comp) }},
			{"get 64 KiB", 0, func(comp *sim.Completion) { x.RdmaGet(th, ep, local, remote, big, comp) }},
		} {
			next := oneShots(r.k)
			cycle := func() {
				comp := next()
				tc.issue(comp)
				x.WaitLocal(th, comp)
			}
			cycle() // warm-up: route cache, event heap, work queue
			n := testing.AllocsPerRun(allocRuns, cycle)
			t.Logf("%s: %.2f allocs per flight", tc.name, n)
			if n > tc.bound {
				t.Errorf("%s: %.2f allocs per flight, want <= %v", tc.name, n, tc.bound)
			}
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}
