package pami

import (
	"fmt"

	"repro/internal/sim"
)

// The progress engine in steps. Every way into the engine — a rank's
// wait, Progress and Advance, an asynchronous progress thread's loop — is
// a cursor (one thread's place in it) whose Step the thread runs on its
// own stack until it would block, and its lane runs after that
// (sim.Thread.RunSteps); an asynchronous progress thread has no stack at
// all (sim.Kernel.SpawnSteps). Whichever runs them, the steps are the
// same: the lane's Charge, Await and LockStep fire, queue and count what
// Sleep, Park and Lock would, so a pass served by the lane and one served
// on the thread's stack schedule the same events at the same times.

// workItem is a unit of progress-engine work: an active message to
// dispatch (f), or the retirement of comp's operation of generation gen.
// The serving thread charges cost first. Both are values that exist
// anyway, so posting one allocates nothing.
type workItem struct {
	cost   sim.Time
	f      *amFlight
	comp   *sim.Completion
	posted sim.Time // enqueue time, for dispatch-latency accounting
	gen    uint32
}

// pass is the serving pass the context's lock holder is making: one
// accounted trip over at most limit queued items, work that arrives
// meanwhile included, and where it stands in the item it serves. Only the
// lock holder serves, so a context has one.
type pass struct {
	limit, n int
	start    sim.Time
	it       workItem // the item being served
	stage    uint8
	reply    *amFlight // the served handler's reply, until it is sent
	carried  any       // what the served handler keeps from Dispatch to Complete (Carry)
}

// Where a pass stands in its item.
const (
	stNext     uint8 = iota // pop the next item, or end the pass
	stItem                  // the item's cost is paid: dispatch it
	stComplete              // the handler's charge is paid: Complete
	stSend                  // the reply's injection is paid: send it
)

// cursor is one thread's place in the engine: which entry point it came
// through, where it stands outside the pass (at), and what it waits for.
// A client keeps two, for its main thread and a progress thread; a third
// thread in the engine at once takes one from the heap.
type cursor struct {
	x        *Context
	op       uint8
	at       uint8
	parked   bool // wait: the deadline and the completion are armed
	ended    bool // wait: comp finished or cond held
	served   int  // the items its pass served
	comp     *sim.Completion
	cond     Cond
	deadline sim.Time
}

// The engine's entry points (cursor.op).
const (
	opFree     uint8 = iota // the cursor is unused
	opLoop                  // ProgressLoop: serve, park, pay the wake-up, until stopped
	opWait                  // wait: serve and park until comp, cond or the deadline
	opProgress              // Progress: one bounded pass
	opAdvance               // Advance: one pass, the caller holding the lock
)

// Where a cursor stands outside the pass (cursor.at).
const (
	atTop    uint8 = iota // the loop's top: stopped?
	atLock                // taking the lock
	atServe               // in its pass
	atParked              // parked after the pass
)

// cursor returns a free cursor of x's client, set up for op on x.
func (x *Context) cursor(op uint8) *cursor {
	cs := &x.Client.cursors
	c := &cs[0]
	if c.op != opFree {
		if c = &cs[1]; c.op != opFree {
			c = new(cursor)
		}
	}
	*c = cursor{x: x, op: op, at: atLock}
	return c
}

// release frees the cursor for its client's next entry into the engine.
func (c *cursor) release() { *c = cursor{} }

// Step runs the thread's way through the engine:
//
//	wait:     Lock; for { Advance; if ended or past the deadline { Unlock; return }
//	          subscribe; arm once; Unlock; Park; Lock }
//	Progress: Lock; one pass over the items queued now; Unlock
//	Advance:  one pass (the lock held throughout)
//	loop:     for !stopped { Lock; Advance; subscribe; Unlock
//	          if stopped { return }; Park; if !stopped { Sleep(ProgressWake) } }
func (c *cursor) Step(th *sim.Thread) bool {
	x := c.x
	for {
		switch c.at {
		case atTop:
			if x.stopped {
				return true
			}
			c.at = atLock
		case atLock:
			if !x.Lock.LockStep(th) {
				return false
			}
			limit := x.queue.Len()
			if c.op != opProgress {
				limit = maxItems
			}
			x.begin(limit)
			c.at = atServe
		case atServe:
			if !x.serve(th) {
				return false
			}
			c.served = x.pass.n
			switch c.op {
			case opAdvance:
				return true
			case opProgress:
				x.Lock.Unlock(th)
				return true
			case opWait:
				c.ended = c.comp != nil && c.comp.Done() || c.cond != nil && c.cond.Holds()
				if c.ended || th.Now() >= c.deadline {
					x.Lock.Unlock(th)
					return true
				}
				x.subscribe(th)
				if !c.parked {
					// First park of this wait: arm the deadline and register with
					// comp, once each, not once per trip round the loop. The
					// registration lasts until Finish, and a second one would only
					// make Finish wake an already-woken thread. The one-shot wake
					// event is harmless if the wait ends first, and it is what
					// pulls a stalled chaos run forward when a message was dropped
					// and nothing else would ever wake the waiter.
					c.parked = true
					if c.deadline != NoDeadline {
						x.Client.Ln.AtAction(c.deadline-th.Now(), th.Waker())
					}
					if c.comp != nil {
						c.comp.AddWaiter(th)
					}
				}
				x.Lock.Unlock(th)
			case opLoop:
				x.subscribe(th)
				x.Lock.Unlock(th)
				if x.stopped {
					return true
				}
			}
			c.at = atParked
			if !th.Await() {
				return false
			}
		case atParked:
			if c.op == opWait {
				c.at = atLock
				continue
			}
			// The loop's wake: if it does not find the loop stopped, pay the
			// SMT wake-up before serving.
			if x.stopped {
				return true
			}
			c.at = atTop
			if !th.Charge(x.Client.M.P.ProgressWake) {
				return false
			}
		}
	}
}

// maxItems is the limit of a pass that serves until the queue is empty.
const maxItems = int(^uint(0) >> 1)

// begin starts the lock holder's pass over at most limit items: one
// progress-engine pass for the advance counter and the starvation gauge.
func (x *Context) begin(limit int) {
	x.noteAdvance()
	x.pass = pass{limit: limit, start: x.Client.Ln.Now()}
}

// serve continues the lock holder's pass and reports whether it is over.
// Each item is its cost, then, for an active message, the handler's
// Dispatch, its charge, its Complete, and its reply's injection cost and
// send, in that order; a retirement finishes its completion.
func (x *Context) serve(th *sim.Thread) bool {
	p := &x.pass
	for {
		switch p.stage {
		case stNext:
			if x.queue.Len() == 0 || p.n >= p.limit {
				x.ItemsServed += uint64(p.n)
				if p.n > 0 {
					th.Trace().SpanArg("advance", "pami", p.start, th.Now(), int64(p.n))
				}
				return true
			}
			p.it = x.queue.Pop()
			if x.hists != nil {
				wait := th.Now() - p.it.posted
				x.hists.itemWait.Observe(wait)
				if p.it.f != nil {
					// Dispatch latency: arrival at the target context to the
					// handler actually running — the queueing cost a starved
					// progress engine inflicts on AMs and AMOs.
					x.hists.amDispatch.Observe(wait)
				}
			}
			p.stage = stItem
			if !th.Charge(p.it.cost) {
				return false
			}
		case stItem:
			f := p.it.f
			if f == nil {
				if comp := p.it.comp; comp.Gen() == p.it.gen {
					// Only the operation it was posted for: a late landing's
					// retirement finishes nothing.
					comp.FinishOnce()
				}
				x.next()
				continue
			}
			h := x.handler(f.msg.Dispatch)
			x.AMsServed++
			charge, more := h.Dispatch(th, x, &f.msg)
			if more {
				p.stage = stComplete
				if !th.Charge(charge) {
					return false
				}
				continue
			}
			if !x.replied(th) {
				return false
			}
		case stComplete:
			f := p.it.f
			x.dispatch[f.msg.Dispatch].Complete(th, x, &f.msg)
			if !x.replied(th) {
				return false
			}
		case stSend:
			x.Client.M.Net.SendMsg(&p.reply.Msg)
			x.release(p.it.f)
		}
	}
}

// replied ends the served handler: with no reply its message is done;
// otherwise the reply's injection cost is drawn and charged, as SendAM
// would, and it reports whether that charge is already over.
func (x *Context) replied(th *sim.Thread) bool {
	p := &x.pass
	if p.reply == nil {
		x.release(p.it.f)
		return true
	}
	p.stage = stSend
	c := x.Client
	return th.Charge(c.jit(c.M.P.CPUInject))
}

// release ends the served message: once every copy of it has been
// handled, nothing reads the flight or its payload any more (AMHandler),
// and both go back to the lane.
func (x *Context) release(f *amFlight) {
	if f.Release() {
		h := x.Client.hold()
		h.bufs.Return(f.msg.Data)
		*f = amFlight{}
		h.am.Put(f)
	}
	x.next()
}

// next ends the served item, dropping what it held.
func (x *Context) next() {
	p := &x.pass
	p.n++
	p.it, p.stage, p.reply, p.carried = workItem{}, stNext, nil, nil
}

// handler returns the handler of dispatch id.
func (x *Context) handler(id int) *AMHandler {
	var h *AMHandler
	if id >= 0 && id < DispatchLimit {
		h = x.dispatch[id]
	}
	if h == nil {
		panic(fmt.Sprintf("pami: rank %d ctx %d: no handler for dispatch %d",
			x.Client.Rank, x.Index, id))
	}
	return h
}

// Reply is the served handler's one reply, made from either of its
// steps, as the last thing it does: the engine sends it once the step
// returns, after the CPU injection cost, as SendAM would. hdr and data are
// taken as SendAM takes them.
func (x *Context) Reply(dst Endpoint, dispatch int, hdr []int64, data []byte) {
	p := &x.pass
	if p.reply != nil {
		panic("pami: a handler replies at most once")
	}
	p.reply = x.flight(dst, dispatch, hdr, data)
}

// Carry keeps v, for the served handler, from its Dispatch to its
// Complete (Carried); the engine drops it when the message is done.
func (x *Context) Carry(v any) { x.pass.carried = v }

// Carried returns what the served handler's Dispatch kept (Carry).
func (x *Context) Carried() any { return x.pass.carried }
