package pami

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/obs"
	"repro/internal/sim"
)

// work is what a context's queue serves: an active message in flight
// (*amFlight) or a completion to retire (*retire). Both are values that
// exist anyway, so posting one allocates nothing.
type work interface {
	// serve runs on the thread advancing the context, with its lock held.
	serve(th *sim.Thread, gen uint32)
}

// workItem is a unit of progress-engine work. The advancing thread sleeps
// cost, then serves w while holding the context lock.
type workItem struct {
	cost   sim.Time
	w      work
	posted sim.Time // enqueue time, for dispatch-latency accounting
	am     bool     // true for active-message dispatches
	gen    uint32   // a retirement's completion generation when posted
}

// retire is a completion as the work item that retires its operation of
// generation gen: a late landing's finishes nothing (landing).
type retire sim.Completion

func (r *retire) serve(_ *sim.Thread, gen uint32) {
	if c := (*sim.Completion)(r); c.Gen() == gen {
		c.FinishOnce()
	}
}

// Context is a PAMI communication context: a progress point with its own
// lock and work queue. Multiple contexts progress independently — the
// paper's fix for progress-thread lock starvation (§III.D).
type Context struct {
	Client *Client
	Index  int
	Lock   sim.Mutex

	// The work queue, and the threads the next post or nudge wakes
	// (subscribe). Each nearly always holds one or two — a reply, the
	// progress thread and a main thread in wait — so both start on arrays
	// in the context (newContext) and only a busier context grows one.
	queue    sim.FIFO[workItem]
	queueArr [1]workItem
	waiters  []*sim.Thread
	waitArr  [2]*sim.Thread
	dispatch [DispatchLimit]AMHandler
	stopped  bool

	// Statistics, exported as pami/ctx.{advances,items_served,ams_served}
	// (Machine.observe). StarveMax is the longest virtual-time gap this
	// context went without being advanced, kept only with a registry.
	Advances    uint64
	ItemsServed uint64
	AMsServed   uint64
	StarveMax   sim.Time

	// Observability handles (nil when the machine has no registry). The
	// latency histograms aggregate across ranks per context index to
	// bound cardinality at scale, so every rank on a lane shares them
	// (Machine.laneCtxHists).
	hists       *ctxHists
	lastAdvance sim.Time
}

// ctxHists is one (lane, context index)'s latency histograms.
type ctxHists struct {
	itemWait, amDispatch, lockWait, lockHold *obs.Histogram
}

// laneCtxHists returns the histograms of context index on lane ln, making
// them on the first call. Only ln's threads touch its slots, so they need
// no lock.
func (m *Machine) laneCtxHists(ln *sim.Lane, index int) *ctxHists {
	h := &m.ctxHists[ln.Index()*(len(m.contexts)/len(m.clients))+index]
	if h.itemWait == nil {
		r := ln.Obs()
		names := ctxHistNames(index)
		h.itemWait = r.Histogram(names[0], obs.DefaultLatencyBounds)
		h.amDispatch = r.Histogram(names[1], obs.DefaultLatencyBounds)
		h.lockWait = r.Histogram(names[2], obs.DefaultLatencyBounds)
		h.lockHold = r.Histogram(names[3], obs.DefaultLatencyBounds)
	}
	return h
}

// ctxHistNames returns the names of context index's four histograms,
// formatted once per process for the indices a rank can have.
func ctxHistNames(index int) [4]string {
	if index < len(ctxHistNameTable) {
		return ctxHistNameTable[index]
	}
	return formatCtxHistNames(index)
}

var ctxHistNameTable = [...][4]string{formatCtxHistNames(0), formatCtxHistNames(1)}

func formatCtxHistNames(index int) [4]string {
	xc := "{ctx=" + strconv.Itoa(index) + "}"
	return [4]string{"pami/ctx.item_wait_ns" + xc, "pami/am.dispatch_ns" + xc,
		"pami/ctx.lock.wait_ns" + xc, "pami/ctx.lock.hold_ns" + xc}
}

// newContext brings up the client's index-th context in its slot.
func newContext(c *Client, index int) {
	x := &c.Contexts[index]
	x.Client = c
	x.Index = index
	x.queue.StartOn(x.queueArr[:])
	if x.waiters == nil {
		x.waiters = x.waitArr[:0]
	}
	if c.Obs != nil {
		x.hists = c.M.laneCtxHists(c.Ln, index)
		x.Lock.Instrument(x.hists.lockWait, x.hists.lockHold)
		x.lastAdvance = c.Ln.Now()
	}
	x.installBuiltinDispatch()
}

// reset empties the context, whose world has ended, for the next world,
// in place: only the arrays its queue and waiter list grew survive.
func (x *Context) reset() {
	x.queue.Empty()
	clear(x.waiters)
	*x = Context{queue: x.queue, waiters: x.waiters[:0]}
}

// poison marks a context whose world has ended and which is not reused,
// so that a reader that outlived the world fails (race builds only).
func (x *Context) poison() { *x = Context{Index: -1} }

// noteAdvance records one progress-engine pass: the advance counter and
// the starvation gauge (the longest virtual-time gap this context ever
// went without being advanced — the signal that a default-mode main
// thread is starving remote AMOs).
func (x *Context) noteAdvance() {
	x.Advances++
	if x.hists != nil {
		now := x.Client.Ln.Now()
		x.StarveMax = max(x.StarveMax, now-x.lastAdvance)
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
func (x *Context) postCompletion(comp *sim.Completion) { x.postRetire(comp, comp.Gen()) }

// postRetire enqueues retirement of comp's operation of generation gen.
func (x *Context) postRetire(comp *sim.Completion, gen uint32) {
	x.post(workItem{cost: x.Client.M.P.CompletionOverhead, w: (*retire)(comp), gen: gen})
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
		if x.hists != nil {
			wait := th.Now() - it.posted
			x.hists.itemWait.Observe(wait)
			if it.am {
				// Dispatch latency: arrival at the target context to the
				// handler actually running — the queueing cost a starved
				// progress engine inflicts on AMs and AMOs.
				x.hists.amDispatch.Observe(wait)
			}
		}
		if it.cost > 0 {
			th.Sleep(it.cost)
		}
		it.w.serve(th, it.gen)
		n++
	}
	x.ItemsServed += uint64(n)
	if n > 0 {
		th.Trace().SpanArg("advance", "pami", start, th.Now(), int64(n))
	}
	return n
}

// subscribe registers th to be woken on the next post without parking.
func (x *Context) subscribe(th *sim.Thread) {
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
	if len(x.waiters) == 0 {
		return
	}
	k := x.Client.M.K
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
