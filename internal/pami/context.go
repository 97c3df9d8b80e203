package pami

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/obs"
	"repro/internal/sim"
)

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
	dispatch [DispatchLimit]*AMHandler
	stopped  bool

	// The pass the lock holder is making through the progress engine
	// (engine.go).
	pass pass

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
func (x *Context) SetDispatch(id int, h *AMHandler) {
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
	x.post(workItem{cost: x.Client.M.P.CompletionOverhead, comp: comp, gen: gen})
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
	c := x.cursor(opAdvance)
	c.at = atServe
	x.begin(maxItems)
	n, _ := x.run(th, c)
	return n
}

// Progress makes one bounded pass over the progress engine: lock, serve
// the work present at entry, unlock. Like PAMI_Context_advance with a
// bounded event count, it does NOT chase work that arrives while it is
// draining — a default-mode main thread that pokes progress between
// compute chunks returns to compute, which is exactly why remote AMOs
// starve without an asynchronous thread.
func (x *Context) Progress(th *sim.Thread) int {
	n, _ := x.run(th, x.cursor(opProgress))
	return n
}

// run drives c's steps for th (sim.Thread.RunSteps), frees it and
// returns what its last pass served and whether its wait ended.
func (x *Context) run(th *sim.Thread, c *cursor) (served int, ended bool) {
	th.RunSteps(c)
	served, ended = c.served, c.ended
	c.release()
	return served, ended
}

// subscribe registers th to be woken on the next post without parking.
func (x *Context) subscribe(th *sim.Thread) {
	x.waiters = append(x.waiters, th)
}

// NoDeadline is the deadline of an untimed wait: the clock never gets
// there, and no wake-up is armed for it.
const NoDeadline sim.Time = math.MaxInt64

// Cond is a condition a wait ends on (WaitCond): Holds is evaluated with
// the context lock held, and must be cheap and side-effect free. The
// waiting thread's lane may evaluate it in the thread's place, after the
// caller's frame has switched out, so it is a value, not a closure over
// that frame: a pointer the caller owns anyway, as a type whose method is
// the condition, costs no allocation.
type Cond interface{ Holds() bool }

// wait is the blocking-operation kernel, the one loop behind every Wait
// entry point: the calling thread repeatedly advances its context and
// parks (releasing the lock!) when there is nothing to do, so other
// threads — notably an asynchronous progress thread sharing the context —
// can take the lock in between. It ends when comp is done or cond holds
// (exactly one of the two is given) and returns true, or
// when the clock reaches deadline first and returns false. Every post and
// nudge on the context wakes the thread, so the loop tolerates spurious
// wakes: it goes round, finds nothing ended, and parks again. Once the
// thread first has to wait, its lane makes the trips for it (cursor.Step),
// and it is switched back in once, when the wait ends.
func (x *Context) wait(th *sim.Thread, comp *sim.Completion, cond Cond, deadline sim.Time) bool {
	c := x.cursor(opWait)
	c.comp, c.cond, c.deadline = comp, cond, deadline
	_, ended := x.run(th, c)
	return ended
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

// WaitCond drives the progress engine until cond holds.
func (x *Context) WaitCond(th *sim.Thread, cond Cond) {
	x.wait(th, nil, cond, NoDeadline)
}

// WaitCondUntil is WaitCond with a virtual-time deadline: it reports
// whether cond held before the clock reached deadline.
func (x *Context) WaitCondUntil(th *sim.Thread, cond Cond, deadline sim.Time) bool {
	return x.wait(th, nil, cond, deadline)
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
	x.run(th, x.loop())
}

// ProgressSteps returns ProgressLoop as the body of a stepper thread
// (sim.Kernel.SpawnSteps), which never has a stack: its lane runs every
// trip. One thread runs it per context.
func (x *Context) ProgressSteps() sim.Stepper { return x.loop() }

// loop returns a cursor for ProgressLoop.
func (x *Context) loop() *cursor {
	c := x.cursor(opLoop)
	c.at = atTop
	return c
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
