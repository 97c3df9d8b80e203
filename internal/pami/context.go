package pami

import (
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/sim"
)

// work is what a context's queue serves: an active message in flight
// (*amFlight) or a completion to retire (*retire). Both are values that
// exist anyway, so posting one allocates nothing.
type work interface {
	// serve runs on the thread advancing the context, with its lock held.
	serve(th *sim.Thread)
}

// workItem is a unit of progress-engine work. The advancing thread sleeps
// cost, then serves w while holding the context lock.
type workItem struct {
	cost   sim.Time
	w      work
	posted sim.Time // enqueue time, for dispatch-latency accounting
	am     bool     // true for active-message dispatches
}

// retire is a completion as the work item that retires it.
type retire sim.Completion

func (r *retire) serve(*sim.Thread) { (*sim.Completion)(r).FinishOnce() }

// Context is a PAMI communication context: a progress point with its own
// lock and work queue. Multiple contexts progress independently — the
// paper's fix for progress-thread lock starvation (§III.D).
type Context struct {
	Client *Client
	Index  int
	Lock   sim.Mutex

	queue sim.FIFO[workItem]
	// The threads the next post or nudge wakes (subscribe). Nearly always
	// one — the progress thread, or a main thread in wait — so the first
	// is a field and only a second one makes a slice, as in sim's cond.
	waiter   *sim.Thread
	waiters  []*sim.Thread
	dispatch [DispatchLimit]AMHandler
	stopped  bool

	// Statistics, attached as pami/ctx.{advances,items_served,ams_served}.
	Advances    uint64
	ItemsServed uint64
	AMsServed   uint64

	// Observability handles (nil when the machine has no registry; every
	// use is nil-safe or guarded). Counters and the starvation gauge are
	// keyed per (rank, ctx); the latency histograms aggregate across
	// ranks per context index to bound cardinality at scale.
	obs         *obs.Registry
	hItemWait   *obs.Histogram
	hAMDispatch *obs.Histogram
	gStarve     *obs.Gauge
	lastAdvance sim.Time
}

// newContext brings up the client's index-th context in its slot.
func newContext(c *Client, index int) {
	x := &c.Contexts[index]
	x.Client = c
	x.Index = index
	if r := c.Obs; r != nil {
		x.obs = r
		rc := fmt.Sprintf("{rank=%d,ctx=%d}", c.Rank, index)
		r.Attach("pami/ctx.advances"+rc, &x.Advances)
		r.Attach("pami/ctx.items_served"+rc, &x.ItemsServed)
		r.Attach("pami/ctx.ams_served"+rc, &x.AMsServed)
		x.gStarve = r.Gauge("pami/ctx.starve_max_ns" + rc)
		xc := fmt.Sprintf("{ctx=%d}", index)
		x.hItemWait = r.Histogram("pami/ctx.item_wait_ns"+xc, obs.DefaultLatencyBounds)
		x.hAMDispatch = r.Histogram("pami/am.dispatch_ns"+xc, obs.DefaultLatencyBounds)
		x.Lock.Instrument(r, "pami/ctx.lock", xc)
		x.lastAdvance = c.Ln.Now()
	}
	x.installBuiltinDispatch()
}

// noteAdvance records one progress-engine pass: the advance counter and
// the starvation gauge (the longest virtual-time gap this context ever
// went without being advanced — the signal that a default-mode main
// thread is starving remote AMOs).
func (x *Context) noteAdvance() {
	x.Advances++
	if x.obs != nil {
		now := x.Client.Ln.Now()
		x.gStarve.SetMax(now - x.lastAdvance)
		x.lastAdvance = now
	}
}

// SetDispatch installs the handler for a dispatch id in [0, DispatchLimit).
// IDs below DispatchUserBase are reserved for PAMI-internal protocols.
func (x *Context) SetDispatch(id int, h AMHandler) {
	if id < 0 || id >= DispatchLimit {
		panic(fmt.Sprintf("pami: dispatch id %d out of range [0,%d)", id, DispatchLimit))
	}
	if h == nil {
		panic(fmt.Sprintf("pami: nil handler for dispatch id %d", id))
	}
	if x.dispatch[id] != nil {
		panic(fmt.Sprintf("pami: duplicate dispatch id %d", id))
	}
	x.dispatch[id] = h
}

// post enqueues a work item and wakes every thread parked on this
// context. Must be called from simulation context (events or threads).
func (x *Context) post(it workItem) {
	it.posted = x.Client.Ln.Now()
	x.queue.Push(it)
	x.Nudge()
}

// postCompletion enqueues retirement of a local completion. FinishOnce,
// not Finish: under fault injection a duplicated delivery (or a retry
// overlapping its delayed original) can post the same completion twice,
// and the second retirement is benign by design.
func (x *Context) postCompletion(comp *sim.Completion) {
	x.post(workItem{cost: x.Client.M.P.CompletionOverhead, w: (*retire)(comp)})
}

// Pending returns the number of queued work items.
func (x *Context) Pending() int { return x.queue.Len() }

// Advance drains the work queue, charging each item's cost to the calling
// thread. The caller must hold the context lock; this is the PAMI progress
// engine, and everything that is not pure RDMA sits behind it.
func (x *Context) Advance(th *sim.Thread) int {
	if !x.Lock.Held(th) {
		panic("pami: Advance without holding the context lock")
	}
	return x.serve(th, math.MaxInt)
}

// Progress makes one bounded pass over the progress engine: lock, serve
// the work present at entry, unlock. Like PAMI_Context_advance with a
// bounded event count, it does NOT chase work that arrives while it is
// draining — a default-mode main thread that pokes progress between
// compute chunks returns to compute, which is exactly why remote AMOs
// starve without an asynchronous thread.
func (x *Context) Progress(th *sim.Thread) int {
	x.Lock.Lock(th)
	n := x.serve(th, x.queue.Len())
	x.Lock.Unlock(th)
	return n
}

// serve is one accounted pass of the progress engine over at most limit
// queued items, work that arrives meanwhile included; the caller holds
// the lock.
func (x *Context) serve(th *sim.Thread, limit int) int {
	x.noteAdvance()
	start := th.Now()
	n := 0
	for x.queue.Len() > 0 && n < limit {
		it := x.queue.Pop()
		if x.obs != nil {
			wait := th.Now() - it.posted
			x.hItemWait.Observe(wait)
			if it.am {
				// Dispatch latency: arrival at the target context to the
				// handler actually running — the queueing cost a starved
				// progress engine inflicts on AMs and AMOs.
				x.hAMDispatch.Observe(wait)
			}
		}
		if it.cost > 0 {
			th.Sleep(it.cost)
		}
		it.w.serve(th)
		n++
	}
	x.ItemsServed += uint64(n)
	if x.obs != nil && n > 0 {
		x.obs.SpanArg(th.ObsTrack(), th.Name(), "advance", "pami", start, th.Now(), int64(n))
	}
	return n
}

// subscribe registers th to be woken on the next post without parking.
func (x *Context) subscribe(th *sim.Thread) {
	if x.waiter == nil {
		x.waiter = th
		return
	}
	x.waiters = append(x.waiters, th)
}

// NoDeadline is the deadline of an untimed wait: the clock never gets
// there, and no wake-up is armed for it.
const NoDeadline sim.Time = math.MaxInt64

// wait is the blocking-operation kernel, the one loop behind every Wait
// entry point: the calling thread repeatedly advances its context and
// parks (releasing the lock!) when there is nothing to do, so other
// threads — notably an asynchronous progress thread sharing the context —
// can take the lock in between. It ends when comp is done or pred holds
// (exactly one of the two is given; pred is evaluated with the context
// lock held and must be cheap and side-effect free) and returns true, or
// when the clock reaches deadline first and returns false. Every post and
// nudge on the context wakes the thread, so the loop tolerates spurious
// wakes: it goes round, finds nothing ended, and parks again.
func (x *Context) wait(th *sim.Thread, comp *sim.Completion, pred func() bool, deadline sim.Time) bool {
	x.Lock.Lock(th)
	for parked := false; ; parked = true {
		x.Advance(th)
		ended := comp != nil && comp.Done() || pred != nil && pred()
		if ended || th.Now() >= deadline {
			x.Lock.Unlock(th)
			return ended
		}
		x.subscribe(th)
		if !parked {
			// First park of this wait: arm the deadline and register with
			// comp, once each, not once per trip round the loop. The
			// registration lasts until Finish, and a second one would only
			// make Finish wake an already-woken thread. The one-shot wake
			// event is harmless if the wait ends first, and it is what
			// pulls a stalled chaos run forward when a message was dropped
			// and nothing else would ever wake the waiter.
			if deadline != NoDeadline {
				x.Client.Ln.AtAction(deadline-th.Now(), th.Waker())
			}
			if comp != nil {
				comp.AddWaiter(th)
			}
		}
		x.Lock.Unlock(th)
		th.Park()
		x.Lock.Lock(th)
	}
}

// WaitLocal drives the progress engine until comp finishes.
func (x *Context) WaitLocal(th *sim.Thread, comp *sim.Completion) {
	x.wait(th, comp, nil, NoDeadline)
}

// WaitLocalUntil is WaitLocal with a virtual-time deadline: it reports
// whether comp finished before the clock reached deadline.
func (x *Context) WaitLocalUntil(th *sim.Thread, comp *sim.Completion, deadline sim.Time) bool {
	return x.wait(th, comp, nil, deadline)
}

// WaitCond drives the progress engine until pred holds.
func (x *Context) WaitCond(th *sim.Thread, pred func() bool) {
	x.wait(th, nil, pred, NoDeadline)
}

// WaitCondUntil is WaitCond with a virtual-time deadline: it reports
// whether pred held before the clock reached deadline.
func (x *Context) WaitCondUntil(th *sim.Thread, pred func() bool, deadline sim.Time) bool {
	return x.wait(th, nil, pred, deadline)
}

// WaitAllLocal drives the progress engine until every completion in comps
// is done.
func (x *Context) WaitAllLocal(th *sim.Thread, comps []*sim.Completion) {
	for _, c := range comps {
		x.WaitLocal(th, c)
	}
}

// ProgressLoop runs th as an asynchronous progress thread for this
// context: it drains the work queue whenever traffic arrives and parks in
// between, paying the SMT-wakeup cost on each dispatch. It returns after
// StopProgressLoop. This is the paper's §III.D asynchronous thread.
func (x *Context) ProgressLoop(th *sim.Thread) {
	p := x.Client.M.P
	for !x.stopped {
		x.Lock.Lock(th)
		x.Advance(th)
		x.subscribe(th)
		x.Lock.Unlock(th)
		if x.stopped {
			return
		}
		// Park until traffic arrives; if that wake does not find the loop
		// stopped, pay the SMT wake-up before serving.
		th.ParkThenSleep(p.ProgressWake, &x.stopped)
	}
}

// SetIdlePass gives th, spawned to run ProgressLoop on x, the idle pass its
// lane runs instead of switching in while th has nothing to serve
// (sim.Thread.SetIdlePass). pass must be x.IdlePass(th); a world installs
// one function value that finds the context from the thread.
func (x *Context) SetIdlePass(th *sim.Thread, pass func(*sim.Thread) bool) {
	th.SetIdlePass(pass, x.Client.M.P.ProgressWake, &x.stopped)
}

// IdlePass is one trip round ProgressLoop's loop, made by th's lane: the
// same Lock, Advance of an empty queue, subscribe and Unlock, so the
// advance counts, the starvation gauge and the lock's count and histograms
// move as the thread's own trip would move them. It declines, doing
// nothing, when the trip could block or sleep: the lock is held, or work
// is queued.
func (x *Context) IdlePass(th *sim.Thread) bool {
	if x.queue.Len() > 0 || !x.Lock.TryLock(th) {
		return false
	}
	x.Advance(th)
	x.subscribe(th)
	x.Lock.Unlock(th)
	return true
}

// Nudge wakes every thread parked on this context without posting work.
// Collective operations use it so blocked peers re-check predicates that
// changed outside the work queue.
func (x *Context) Nudge() {
	if x.waiter == nil {
		return
	}
	k := x.Client.M.K
	k.Wake(x.waiter)
	x.waiter = nil
	for i, t := range x.waiters {
		k.Wake(t)
		x.waiters[i] = nil
	}
	x.waiters = x.waiters[:0]
}

// StopProgressLoop terminates ProgressLoop threads parked on this context.
func (x *Context) StopProgressLoop() {
	x.stopped = true
	x.Nudge()
}

// OpSet aggregates many chunk transfers into a single completion, like the
// messaging unit's hardware completion counters: individual chunk arrivals
// cost no CPU, and one completion retires through the progress engine when
// the last chunk lands. It lives in storage its caller owns (InitOpSet),
// so a transfer's set costs no heap object of its own.
type OpSet struct {
	x         *Context
	remaining int
	armed     bool
	finished  bool
	comp      *sim.Completion
}

// InitOpSet sets s up, in place, as an empty op set on x whose completion
// comp fires after Arm has been called and every added chunk has
// finished. s must not be in use: every chunk of a previous transfer has
// landed.
func (x *Context) InitOpSet(s *OpSet, comp *sim.Completion) {
	*s = OpSet{x: x, comp: comp}
}

// done retires one chunk; must be called from simulation context. After
// the set has finished, further retirements are ignored: under fault
// injection a duplicated delivery can land a chunk twice, and the copy
// arriving after the last real chunk is not a protocol bug.
func (s *OpSet) done() {
	if s.finished {
		return
	}
	s.remaining--
	if s.remaining < 0 {
		panic("pami: OpSet chunk over-completion")
	}
	s.maybeFinish()
}

// Arm declares that no more chunks will be added. If everything already
// landed, the completion posts immediately.
func (s *OpSet) Arm() {
	s.armed = true
	s.maybeFinish()
}

func (s *OpSet) maybeFinish() {
	if s.armed && s.remaining == 0 && !s.finished {
		s.finished = true
		s.x.postCompletion(s.comp)
	}
}
