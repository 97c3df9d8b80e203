package sim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// This file is the intra-run parallel engine: a conservative
// time-window scheduler in the style of parti-gem5's quantum
// synchronization, layered over the PR 2 queue structures.
//
// The simulation is partitioned into lanes. A Lane owns a private
// min-heap + zero-delay ring (the exact single-kernel queue layout), a
// private clock and sequence counter, and the threads pinned to it.
// Lanes advance in rounds: the coordinator computes a conservative
// horizon per lane, the runnable lanes execute every owned event below
// their horizon (possibly on parallel worker goroutines), and then the
// coordinator applies the cross-lane operations the lanes logged —
// message sends, barrier arrivals — in one canonical order, inserting
// their future effects into the destination lanes' heaps.
//
// Correctness (no lane ever receives an event in its past) rests on the
// model's lookahead Δ: every cross-lane operation issued at time u takes
// effect in another lane no earlier than u+Δ (for the network model, Δ
// is the minimum cross-node wire latency; see network.Params.Lookahead).
// The horizon rule is CMB-style:
//
//	H(i) = min over j≠i of T_next(j) + Δ
//
// where T_next(j) is lane j's earliest pending event at round start
// (after the previous round's logged operations were applied, so every
// future cross-lane effect traces back to some currently-visible event).
// Any event another lane j executes this round has time ≥ T_next(j), so
// any effect it can deposit into lane i lands at ≥ T_next(j)+Δ ≥ H(i) —
// in i's future. Effects of lane i's *own* logged operations can return
// to i (a reply chain, a barrier release) without being visible in other
// lanes' T_next, so each Defer dynamically caps the window: an operation
// logged with earliest-effect bound m stops the lane at m (operations
// that may touch the own lane directly) or m+Δ (remote-only operations,
// whose earliest path back to this lane needs one more cross-lane hop).
//
// Determinism at any worker count: lanes are data-independent within a
// round (that is the horizon invariant), so executing them in any order
// or in parallel yields identical per-lane states; the boundary then
// applies logged operations in the canonical (time, lane index, log
// index) order. Worker count therefore cannot change a single simulated
// byte — it only changes wall-clock time.
//
// Round scalability (the Amdahl refit): three coordinator costs used to
// grow with the lane count regardless of how much work a round carried —
// an O(lanes) min1/min2 scan, a single-goroutine O(N log N) sort over
// every deferred operation, and per-lane dispatch bookkeeping. They are
// replaced by
//
//   - a tournament tree over lane next-times (horizon.go), updated only
//     for lanes whose queues changed, making round setup
//     O(changed · log lanes);
//   - a k-way merge of the per-lane deferred logs — each already in
//     (time, log index) order, because lane time is monotone within a
//     window — which replays the identical canonical order in
//     O(N log k) with no comparator closure;
//   - lane grouping: runnable lanes are dispatched to workers in
//     contiguous chunks (the grain ConfigureLanes derives from the lane
//     and worker counts), amortizing the per-window handoff at large
//     lane counts.
//
// The boundary itself is serial: appliers touch shared link/MU/fault
// state in canonical order and insert their ScheduleAbs deposits
// directly, so each destination lane's seq tie-breaks follow that order.

const timeInf = Time(math.MaxInt64)

// Deferred is a cross-lane operation as the boundary applies it: Apply
// receives the lane time at which the operation was issued. Like Action,
// it lets a layer log a value it already owns — the network's message
// record — where it would otherwise build a closure around it.
type Deferred interface{ Apply(at Time) }

// DeferredFunc is a func(at Time) as a Deferred.
type DeferredFunc func(at Time)

// Apply calls f.
func (f DeferredFunc) Apply(at Time) { f(at) }

// deferredOp is one logged cross-lane operation awaiting boundary
// application.
type deferredOp struct {
	at        Time // lane time when logged
	minEffect Time // lower bound on the operation's earliest effect, anywhere
	op        Deferred
}

// mergeEnt is one lane's cursor in the boundary k-way merge: the head of
// that lane's deferred log.
type mergeEnt struct {
	ln  *Lane
	pos int
}

// mergeLess orders merge heads by (time, lane index); within one lane
// the log itself supplies the (time, log index) order.
func mergeLess(a, b mergeEnt) bool {
	ta, tb := a.ln.deferred[a.pos].at, b.ln.deferred[b.pos].at
	if ta != tb {
		return ta < tb
	}
	return a.ln.idx < b.ln.idx
}

func mergeSiftUp(h []mergeEnt, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !mergeLess(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func mergeSiftDown(h []mergeEnt, i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && mergeLess(h[r], h[l]) {
			m = r
		}
		if !mergeLess(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Lane is one shard of a partitioned simulation: a private event queue,
// clock, and thread set. In a single-lane kernel the kernel's embedded
// base lane is the whole scheduler; ConfigureLanes adds peer lanes for
// multi-lane runs. Lane methods that schedule relative to "now" (At,
// Defer, DeferRemote) must be called from within the lane — its threads
// or event callbacks — while ScheduleAbs is the boundary-side insertion
// used by deferred-operation appliers.
type Lane struct {
	k           *Kernel
	idx         int
	now         Time
	seq         uint64
	heap        eventHeap
	ring        fifoRing
	cur         *Thread
	threads     []*Thread
	slab        []Thread  // current chunk new threads are cut from (newThread)
	idle        *carrier  // idle carriers for the lane's next threads, listed through carrier.idle
	carrierSlab []carrier // current chunk new carriers are cut from (takeCarrier)
	live        int
	fired       uint64 // attached as sim/events
	switches    uint64 // coroutine switches into threads (Kernel.Switches)
	failure     *ThreadPanic
	running     bool
	tracing     bool // obs keeps a trace (Registry.Tracing): the one check at a recording site

	obs *obs.Registry

	// Window state (multi-lane mode).
	limit    Time // exclusive horizon of the current window
	winCap   Time // dynamic cap from operations deferred this window
	dirtyQ   bool // queued for a horizon-tree leaf refresh
	inMerge  bool // registered on the coordinator's boundary merge list
	deferred []deferredOp
}

// Index returns the lane's index within its kernel (0 for the base lane
// of a single-lane kernel).
func (ln *Lane) Index() int { return ln.idx }

// Now returns the lane's clock. During a window this is the lane's own
// virtual time, which may differ from other lanes' clocks by up to the
// window width.
func (ln *Lane) Now() Time { return ln.now }

// Obs returns the registry lane-local instrumentation must record into:
// the lane's child registry in multi-lane mode (merged into the parent
// in lane order after the run), or the kernel's registry (possibly nil)
// in single-lane mode.
func (ln *Lane) Obs() *obs.Registry { return ln.obs }

// At schedules fn at now+delay on this lane. A negative delay panics:
// causality violations are always bugs in the caller. On a single-lane
// kernel this is Kernel.At; on a multi-lane kernel the base lane is the
// coordinator queue and must not be scheduled into from a lane window.
func (ln *Lane) At(delay Time, fn func()) { ln.AtAction(delay, Func(fn)) }

// AtAction is At for a value that is its own event.
func (ln *Lane) AtAction(delay Time, a Action) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	if ln.k.multi && ln == &ln.k.Lane && ln.k.inWindow.Load() {
		panic("sim: Kernel.At during a lane window; schedule on the owning lane")
	}
	ln.seq++
	e := event{at: ln.now + delay, seq: ln.seq, a: a}
	if delay == 0 {
		ln.ring.push(e)
	} else {
		ln.heapPush(e)
	}
}

// ScheduleAbs inserts fn at absolute time at — the boundary-phase
// insertion used by deferred-operation appliers to deposit an effect
// (a message arrival, a barrier release) into a destination lane. at
// must not be in the lane's past; the horizon protocol guarantees that,
// and a violation means a lookahead bound was broken. Appliers run in
// canonical order on one goroutine, so the destination's seq assignment
// — every timestamp tie-break — follows that order.
func (ln *Lane) ScheduleAbs(at Time, fn func()) { ln.ScheduleAbsAction(at, Func(fn)) }

// ScheduleAbsAction is ScheduleAbs for a value that is its own event.
func (ln *Lane) ScheduleAbsAction(at Time, a Action) {
	k := ln.k
	if k.inWindow.Load() {
		panic("sim: ScheduleAbs during a lane window; log a Defer instead")
	}
	if at < ln.now {
		panic(fmt.Sprintf("sim: cross-lane event at %s is in lane %d's past (now %s): lookahead bound violated",
			FormatTime(at), ln.idx, FormatTime(ln.now)))
	}
	ln.seq++
	ln.heapPush(event{at: at, seq: ln.seq, a: a})
	k.laneInserted = true
	k.markDirty(ln)
}

// logDeferred appends one operation to the lane's boundary log. Logs
// from inside a window are collected from the runnable set at the
// boundary; a log from serial context (a coordinator event issuing an
// operation on a lane's behalf) must register the lane itself.
func (ln *Lane) logDeferred(op deferredOp) {
	if len(ln.deferred) == 0 && !ln.k.inWindow.Load() && !ln.inMerge {
		ln.inMerge = true
		ln.k.deferLanes = append(ln.k.deferLanes, ln)
	}
	ln.deferred = append(ln.deferred, op)
}

// Windowed reports whether the lane executes in conservative windows
// beside other lanes, so its cross-lane operations have to wait for the
// boundary. It is false on an unpartitioned kernel and on a partitioned
// kernel's coordinator queue: both already run serially, and Defer and
// DeferRemote apply immediately there. Callers that would build a
// closure only to have it applied on the spot can ask first.
func (ln *Lane) Windowed() bool { return ln != &ln.k.Lane }

// Defer logs a cross-lane operation for application at the next window
// boundary. minEffect must lower-bound the earliest time the operation
// takes effect anywhere, including this lane itself (a barrier release,
// a loopback delivery); the lane's window is capped at minEffect so the
// effect can still be deposited into this lane's future. fn runs on the
// coordinator goroutine, in canonical (time, lane, log index) order
// against all other lanes' logged operations, receiving the lane time
// at which the operation was issued. On a lane that is not Windowed, fn
// applies immediately — there is no concurrency to defer around — which
// keeps callers engine-agnostic.
func (ln *Lane) Defer(minEffect Time, fn func(at Time)) { ln.DeferOp(minEffect, DeferredFunc(fn)) }

// DeferOp is Defer for a value that is its own boundary operation.
func (ln *Lane) DeferOp(minEffect Time, op Deferred) {
	if !ln.Windowed() {
		op.Apply(ln.now)
		return
	}
	if ln.k.inBoundary {
		panic("sim: Defer from a boundary applier; use ScheduleAbs")
	}
	if minEffect < ln.now {
		panic("sim: Defer minEffect before now")
	}
	ln.logDeferred(deferredOp{at: ln.now, minEffect: minEffect, op: op})
	if minEffect < ln.winCap {
		ln.winCap = minEffect
	}
}

// DeferRemote is Defer for operations whose direct effects land only in
// *other* lanes (a remote message send). The earliest path back to this
// lane needs one further cross-lane hop, so the window cap relaxes to
// minEffect+Δ. minEffect must additionally be ≥ now+Δ — that is the
// lookahead contract every other lane's horizon already assumes.
func (ln *Lane) DeferRemote(minEffect Time, fn func(at Time)) {
	ln.DeferRemoteOp(minEffect, DeferredFunc(fn))
}

// DeferRemoteOp is DeferRemote for a value that is its own boundary
// operation.
func (ln *Lane) DeferRemoteOp(minEffect Time, op Deferred) {
	if !ln.Windowed() {
		op.Apply(ln.now)
		return
	}
	if ln.k.inBoundary {
		panic("sim: DeferRemote from a boundary applier; use ScheduleAbs")
	}
	if minEffect < ln.now+ln.k.lookahead {
		panic("sim: DeferRemote minEffect inside the lookahead window")
	}
	ln.logDeferred(deferredOp{at: ln.now, minEffect: minEffect, op: op})
	if c := minEffect + ln.k.lookahead; c < ln.winCap {
		ln.winCap = c
	}
}

// nextTime returns the lane's earliest pending event time, or timeInf.
func (ln *Lane) nextTime() Time {
	t := timeInf
	if len(ln.heap) > 0 {
		t = ln.heap[0].at
	}
	if ln.ring.n > 0 {
		if rt := ln.ring.buf[ln.ring.head].at; rt < t {
			t = rt
		}
	}
	return t
}

// popUpTo pops the lane's earliest pending event if its time is
// strictly below limit, merging the heap and ring on (at, seq); the
// heap wins timestamp ties (see queue.go). ok is false when no pending
// event lies below limit.
func (ln *Lane) popUpTo(limit Time) (e event, ok bool) {
	if ln.ring.n == 0 || (len(ln.heap) > 0 && ln.heap[0].at <= ln.ring.buf[ln.ring.head].at) {
		if len(ln.heap) == 0 || ln.heap[0].at >= limit {
			return event{}, false
		}
		return ln.heapPop(), true
	}
	if ln.ring.buf[ln.ring.head].at >= limit {
		return event{}, false
	}
	return ln.ring.pop(), true
}

// runWindow executes the lane's events with time strictly below the
// window limit (dynamically capped by Defer). It may run on any worker
// goroutine; the lane is owned exclusively by its window for the round.
// It is the engine's only event loop: a single-lane Run is one window of
// the base lane with no limit.
func (ln *Lane) runWindow() {
	for {
		limit := ln.limit
		if ln.winCap < limit {
			limit = ln.winCap
		}
		e, ok := ln.popUpTo(limit)
		if !ok {
			return
		}
		if e.at < ln.now {
			panic("sim: time went backwards")
		}
		ln.now = e.at
		ln.fired++
		e.a.Fire()
		if ln.failure != nil {
			return
		}
	}
}

// ConfigureLanes partitions the kernel into n lanes executed by up to
// `workers` goroutines, with cross-lane lookahead Δ. It must be called
// before any thread is spawned, and after SetObs (each lane records into
// a private child registry of the kernel's registry, merged back in lane
// order after Run). The kernel's own base queue becomes the coordinator:
// events scheduled through Kernel.At — fault windows, setup timers —
// stay there and execute serially between rounds; they must not touch
// lane-owned state.
//
// n must be ≥ 1; n == 1 still runs the windowed engine (with trivial
// horizons), which keeps behavior identical across lane counts.
//
// The lanes start on the arrays kept in kept (nil for none), which they
// hold until its Reclaim.
func (k *Kernel) ConfigureLanes(n, workers int, lookahead Time, kept *LaneArrays) {
	if k.running {
		panic("sim: ConfigureLanes during Run")
	}
	if k.multi {
		panic("sim: ConfigureLanes called twice")
	}
	if n < 1 {
		panic("sim: lane count must be >= 1")
	}
	if len(k.Lane.threads) > 0 {
		panic("sim: ConfigureLanes after Spawn")
	}
	if lookahead < 1 {
		lookahead = 1
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	k.multi = true
	k.workers = workers
	k.lookahead = lookahead
	// Dispatch grain: enough lanes per chunk that each worker claims
	// roughly eight chunks per full round (load-balance granularity
	// against per-chunk handoff cost), clamped to [1, 64]. A function of
	// (lanes, workers) alone, and execution-only: horizons and boundary
	// order are per-lane, so the grain cannot change a simulated byte.
	k.laneGroup = min(max(n/(workers*8), 1), 64)
	k.lanes = make([]*Lane, n)
	for i := range k.lanes {
		ln := &Lane{k: k, idx: i, winCap: timeInf}
		ln.obs = k.obs.NewChild()
		ln.tracing = ln.obs.Tracing()
		ln.obs.Attach("sim/events", &ln.fired)
		k.lanes[i] = ln
	}
	if kept != nil {
		kept.lend(k)
	}
	if k.obs != nil {
		// Round-level observability, recorded by the coordinator into the
		// parent registry. All values derive from simulated state alone
		// (the round structure is a function of lane state, never of the
		// worker count or grain), so the exported bytes stay identical at
		// every shard setting.
		k.obs.Attach("sim/rounds", &k.rounds)
		k.obs.Attach("sim/boundary_ops", &k.boundaryOps)
		k.obsWindowWidth = k.obs.Histogram("sim/window_width_ns", obs.ExpBounds(16, 4, 12))
	}
}

// Lanes returns the kernel's lanes, or nil for an unpartitioned kernel.
func (k *Kernel) Lanes() []*Lane { return k.lanes }

// LaneOf returns the lane that owns member i of whatever the kernel was
// partitioned by (the network partitions by node): lane i of a
// partitioned kernel, the base lane — the whole scheduler — of an
// unpartitioned one. Layers hold the handle it returns and schedule
// through it, which is what keeps their code engine-agnostic.
func (k *Kernel) LaneOf(i int) *Lane {
	if k.multi {
		return k.lanes[i]
	}
	return &k.Lane
}

// laneExec is the persistent worker pool executing lane windows. The
// coordinator participates as the last worker, so one configured worker
// means fully inline execution with no cross-goroutine handoff. Lanes
// are claimed in contiguous chunks of `group`.
type laneExec struct {
	start chan struct{}
	wg    sync.WaitGroup
	next  atomic.Int32
	tasks []*Lane
	group int
}

func (k *Kernel) execWorkers() *laneExec {
	if k.exec == nil {
		x := &laneExec{start: make(chan struct{}), group: k.laneGroup}
		k.exec = x
		for w := 0; w < k.workers-1; w++ {
			go func() {
				for range x.start {
					x.drain()
					x.wg.Done()
				}
			}()
		}
	}
	return k.exec
}

func (x *laneExec) drain() {
	for {
		lo := (int(x.next.Add(1)) - 1) * x.group
		if lo >= len(x.tasks) {
			return
		}
		for _, ln := range x.tasks[lo:min(lo+x.group, len(x.tasks))] {
			ln.runWindow()
		}
	}
}

// runWindows executes one round's lane windows, dispatched in chunks of
// the grain. A single chunk, or a single-worker kernel, runs inline: no
// handoff, no atomics.
func (k *Kernel) runWindows(x *laneExec, tasks []*Lane) {
	chunks := (len(tasks) + x.group - 1) / x.group
	if chunks <= 1 || k.workers == 1 {
		for _, ln := range tasks {
			ln.runWindow()
		}
		return
	}
	x.tasks = tasks
	x.next.Store(0)
	w := min(k.workers, chunks) - 1
	x.wg.Add(w)
	for i := 0; i < w; i++ {
		x.start <- struct{}{}
	}
	x.drain()
	x.wg.Wait()
	x.tasks = nil
}

// runLanes is the multi-lane Run loop: rounds of horizon computation,
// (possibly parallel) window execution, and boundary application.
func (k *Kernel) runLanes() error {
	x := k.execWorkers()
	defer func() { k.exec = nil }()
	defer close(x.start)

	// The tree absorbs everything scheduled before Run; pre-Run dirty
	// marks are redundant with the full build.
	k.buildHorizonTree()
	for _, ln := range k.dirty {
		ln.dirtyQ = false
	}
	k.dirty = k.dirty[:0]

	runnable := k.runnable[:0]
	for {
		k.laneInserted = false
		k.flushDirty()
		min1 := k.htree[1].t
		argmin := int(k.htree[1].idx)

		// Coordinator events (setup timers, fault windows) up to the
		// global minimum run serially between rounds.
		co := &k.Lane
		bound := min1
		if bound != timeInf {
			bound++ // events at exactly min1 still belong to the coordinator
		}
		for {
			e, ok := co.popUpTo(bound)
			if !ok {
				break
			}
			co.now = e.at
			co.fired++
			if _, thread := e.a.(*resume); thread {
				panic("sim: thread scheduled on the coordinator of a multi-lane kernel")
			}
			e.a.Fire()
		}
		if k.laneInserted {
			// A coordinator event (or a fresh spawn) inserted lane events;
			// the horizon tree is stale. Refresh before running a round.
			continue
		}
		if min1 == timeInf {
			break // every lane and the coordinator have drained
		}

		// Horizons: H(i) = min over j≠i of T_next(j) + Δ. The argmin lane
		// sees the second minimum; with no second minimum it sprints,
		// bounded only by its own Defer caps. Runnable lanes — next event
		// strictly below their horizon — fall out of a pruned tree walk;
		// the argmin lane always qualifies (min1 < min1+Δ ≤ min2+Δ).
		runnable = k.collectBelow(1, min1+k.lookahead, runnable[:0])
		min2 := k.htreeMin2()
		for _, ln := range runnable {
			h := min1
			if ln.idx == argmin {
				h = min2
			}
			if h == timeInf {
				ln.limit = timeInf
			} else {
				ln.limit = h + k.lookahead
			}
			ln.winCap = timeInf
		}
		k.rounds++

		// Execute the round.
		k.inWindow.Store(true)
		k.runWindows(x, runnable)
		k.inWindow.Store(false)

		for _, ln := range runnable {
			if ln.failure != nil && k.Lane.failure == nil {
				k.Lane.failure = ln.failure
			}
		}
		if k.Lane.failure != nil {
			k.runnable = runnable[:0]
			k.mergeLaneObs()
			return k.Lane.failure
		}

		if k.obs != nil {
			// Realized window widths: how far each lane advanced past its
			// round-start next-event time (still cached in the tree leaf).
			for _, ln := range runnable {
				k.obsWindowWidth.Observe(int64(ln.now - k.htree[k.htreeBase+ln.idx].t))
			}
		}
		for _, ln := range runnable {
			k.markDirty(ln)
		}

		k.runBoundary(runnable)
	}
	k.runnable = runnable[:0]

	// Termination: the final clock is the maximum over every lane.
	final := k.Lane.now
	for _, ln := range k.lanes {
		if ln.now > final {
			final = ln.now
		}
	}
	k.Lane.now = final
	k.mergeLaneObs()
	if k.obs != nil {
		k.obs.Gauge("sim/final_ns").SetMax(final)
		// Amdahl telemetry: the share of scheduling work bound to the
		// coordinator goroutine — coordinator events plus boundary
		// operations — against everything, in permille. Derived from
		// simulated state only, so it is identical at every shard and
		// lane-group setting.
		if total := k.EventsFired() + k.boundaryOps; total > 0 {
			serial := k.Lane.fired + k.boundaryOps
			k.obs.Gauge("sim/serial_permille").Set(int64(serial * 1000 / total))
		}
	}
	return k.checkDeadlock(final)
}

// runBoundary applies every operation logged this round in the canonical
// (time, lane index, log index) order.
func (k *Kernel) runBoundary(runnable []*Lane) {
	// Collect the lanes holding deferred operations: window lanes from
	// the runnable set, serial-context logs from deferLanes.
	for _, ln := range runnable {
		if len(ln.deferred) > 0 && !ln.inMerge {
			ln.inMerge = true
			k.deferLanes = append(k.deferLanes, ln)
		}
	}
	if len(k.deferLanes) == 0 {
		return
	}

	// k-way merge: each lane's log is already in (time, log index)
	// order — lane time is monotone within a window — so a heap over
	// the log heads keyed by (time, lane index) replays the canonical
	// (time, lane, log) total order without sorting: O(N log k) against
	// the former O(N log N) closure-comparator sort over every op.
	h := k.merge[:0]
	ops := 0
	for _, ln := range k.deferLanes {
		ops += len(ln.deferred)
		h = append(h, mergeEnt{ln: ln, pos: 0})
		mergeSiftUp(h, len(h)-1)
	}
	k.boundaryOps += uint64(ops)

	// The operations run on this goroutine in canonical order: shared
	// state (link and MU booking, fault verdicts, traffic totals) first,
	// then their ScheduleAbs deposits straight into the destination lanes.
	k.inBoundary = true
	for len(h) > 0 {
		ln := h[0].ln
		op := &ln.deferred[h[0].pos]
		op.op.Apply(op.at)
		if next := h[0].pos + 1; next < len(ln.deferred) {
			h[0].pos = next
			mergeSiftDown(h, 0)
		} else {
			n := len(h) - 1
			h[0] = h[n]
			h = h[:n]
			mergeSiftDown(h, 0)
		}
	}
	k.inBoundary = false
	k.merge = h[:0]

	for _, ln := range k.deferLanes {
		for i := range ln.deferred {
			ln.deferred[i] = deferredOp{} // release the operations to the GC
		}
		ln.deferred = ln.deferred[:0]
		ln.inMerge = false
	}
	k.deferLanes = k.deferLanes[:0]
}

// mergeLaneObs folds every lane's child registry into the parent, in
// lane order — the same order a serial replay would record, so exported
// bytes are independent of worker count.
func (k *Kernel) mergeLaneObs() {
	if k.obs == nil || k.lanesMerged {
		return
	}
	k.lanesMerged = true
	for _, ln := range k.lanes {
		if ln.obs != nil {
			k.obs.Merge(ln.obs)
		}
	}
}
