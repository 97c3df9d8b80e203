package sim

import (
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/obs"
)

// Kernel is the discrete-event scheduler. It owns the virtual clock and the
// event queue, and serializes execution of all simulated threads.
//
// The queue is split between a value-based min-heap (future events) and a
// FIFO ring (events at the current instant); see queue.go for the layout
// and the ordering proof. Steady-state scheduling performs zero heap
// allocations: both containers recycle their backing arrays, and a thread
// wake-up is the thread itself as the event's Action, not a closure.
//
// A kernel is single-lane by default: the embedded base Lane is the whole
// scheduler, and every legacy call (At, Spawn, Now) promotes to it
// unchanged. ConfigureLanes partitions the simulation into additional
// lanes advanced in conservative time windows, possibly on parallel
// worker goroutines; see lane.go.
type Kernel struct {
	Lane // base lane: the whole scheduler single-lane, the coordinator queue multi-lane

	// Multi-lane state (zero for classic single-lane kernels).
	multi        bool
	workers      int
	lookahead    Time
	laneGroup    int // dispatch grain: lanes per worker chunk, derived in ConfigureLanes
	lanes        []*Lane
	exec         *laneExec
	inWindow     atomic.Bool
	inBoundary   bool
	finished     bool // Run returned nil: every thread ran to its end
	laneInserted bool
	lanesMerged  bool
	// noShortcuts makes every Sleep and every step take the switching
	// path: no wake-up fires inline, and the lane steps no thread — a
	// stepper thread gets a carrier, and RunSteps runs every step on its
	// thread's stack. Written only by tests: the differential oracle runs
	// each generated program both ways and compares everything observable.
	noShortcuts bool

	// Horizon tree (horizon.go): tournament min-tree over lane
	// next-event times, refreshed only for dirty lanes each round.
	htree     []hnode
	htreeBase int
	dirty     []*Lane

	// Round scratch, reused across rounds without reallocation.
	runnable   []*Lane    // lanes selected to run the current window
	deferLanes []*Lane    // lanes holding deferred boundary operations
	merge      []mergeEnt // k-way merge heap over deferred-log heads

	// Round-level counts, attached as sim/rounds and sim/boundary_ops.
	rounds         uint64
	boundaryOps    uint64
	obsWindowWidth *obs.Histogram // nil handle is a no-op
}

// NewKernel returns an empty kernel at virtual time zero.
func NewKernel() *Kernel {
	k := &Kernel{}
	k.Lane.k = k
	// A single-lane run is one unbounded window of the base lane.
	k.Lane.limit = timeInf
	k.Lane.winCap = timeInf
	return k
}

// SetObs installs the observability registry, once, before anything runs.
// All kernel, thread, and mutex instrumentation is a no-op until this is
// called. With lanes, SetObs must precede ConfigureLanes so each lane can
// derive its child registry.
func (k *Kernel) SetObs(r *obs.Registry) {
	k.Lane.obs = r
	k.Lane.tracing = r.Tracing()
	r.Attach("sim/events", &k.Lane.fired)
}

// DisableShortcuts makes the kernel take every switch it would save:
// every Sleep switches out, and every step (Stepper) runs on its thread's
// own stack, a stepper thread on a carrier. Events, times, counts, spans
// and every simulated byte stay what they are; only Switches rises. It is
// the oracle side of a differential test and must precede Run; a
// simulation never needs it.
func (k *Kernel) DisableShortcuts() { k.noShortcuts = true }

// EventsFired returns the number of events executed so far across every
// lane; useful for gauging simulation cost and for replay-determinism
// checks.
func (k *Kernel) EventsFired() uint64 {
	n := k.Lane.fired
	for _, ln := range k.lanes {
		n += ln.fired
	}
	return n
}

// Switches returns the number of coroutine switches into simulated
// threads so far, across every lane. It counts what the host paid, not
// anything the simulated machine did, so it has no obs counter: the
// registry's exported bytes describe the machine alone.
func (k *Kernel) Switches() uint64 {
	n := k.Lane.switches
	for _, ln := range k.lanes {
		n += ln.switches
	}
	return n
}

// SwitchesInto returns the number of coroutine switches into the threads
// of one trace track kind (Thread.SetObsTrack) so far, across every lane:
// none into a stepper thread (SpawnSteps) its lane always steps.
func (k *Kernel) SwitchesInto(kind obs.TrackKind) uint64 {
	var n uint64
	count := func(ln *Lane) {
		for _, t := range ln.threads {
			if t.track == kind {
				n += t.switches
			}
		}
	}
	count(&k.Lane)
	for _, ln := range k.lanes {
		count(ln)
	}
	return n
}

// Pending returns the number of scheduled, not-yet-fired events across
// every lane.
func (k *Kernel) Pending() int {
	n := len(k.Lane.heap) + k.Lane.ring.n
	for _, ln := range k.lanes {
		n += len(ln.heap) + ln.ring.n
	}
	return n
}

// scheduleThread schedules a control transfer to t at now+delay on this
// lane: At for the scheduler's own traffic (Spawn/Sleep/Yield/Wake), which
// dominates the event mix.
func (ln *Lane) scheduleThread(delay Time, t *Thread) {
	ln.AtAction(delay, (*resume)(t))
}

// ThreadPanic is returned by Run when a simulated thread panicked.
type ThreadPanic struct {
	Thread string
	Value  any
	Stack  string
}

func (p *ThreadPanic) Error() string {
	return fmt.Sprintf("sim: thread %q panicked: %v\n%s", p.Thread, p.Value, p.Stack)
}

// DeadlockError is returned by Run when no events remain but live threads
// are still blocked.
type DeadlockError struct {
	At      Time
	Blocked []string
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %s; blocked threads: %s",
		FormatTime(d.At), strings.Join(d.Blocked, ", "))
}

// Run executes events until the queue drains. It returns nil when every
// spawned thread has finished, a DeadlockError when threads remain blocked
// with nothing scheduled, or a ThreadPanic if a thread panicked. A run
// that succeeds hands its lanes' idle carriers to the process's pool for
// the next run to take. A run that fails releases every unfinished
// thread — its body unwinds (deferred calls run) — and stops every
// carrier the kernel holds, pooling none, so the kernel cannot be resumed
// and no goroutine of it is left.
func (k *Kernel) Run() error {
	if k.running {
		panic("sim: Run called reentrantly")
	}
	k.running = true
	defer func() { k.running = false }()
	var err error
	if k.multi {
		err = k.runLanes()
	} else {
		err = k.runSingle()
	}
	if err != nil {
		k.Lane.stopThreads()
		for _, ln := range k.lanes {
			ln.stopThreads()
		}
		return err
	}
	k.Lane.poolCarriers()
	for _, ln := range k.lanes {
		ln.poolCarriers()
	}
	k.finished = true
	return nil
}

// Finished reports whether Run has returned nil: every thread of the
// kernel ran to its end and no event is left. Only such a kernel's world
// gives what it grew back to its owner (KeptLanes, pami.Shelf).
func (k *Kernel) Finished() bool { return k.finished }

// runSingle is the single-lane Run: the base lane's one unbounded window.
func (k *Kernel) runSingle() error {
	k.Lane.runWindow()
	if k.failure != nil {
		return k.failure
	}
	if k.obs != nil {
		k.obs.Gauge("sim/final_ns").SetMax(k.now)
	}
	return k.checkDeadlock(k.now)
}

// checkDeadlock returns a DeadlockError naming every unfinished thread,
// or nil when all threads of all lanes have finished.
func (k *Kernel) checkDeadlock(at Time) error {
	var blocked []string
	note := func(ln *Lane) {
		if ln.live == 0 {
			return
		}
		for _, t := range ln.threads {
			if t.state != stateDone {
				blocked = append(blocked, fmt.Sprintf("%s(%s)", t.Name(), t.state))
			}
		}
	}
	note(&k.Lane)
	for _, ln := range k.lanes {
		note(ln)
	}
	if blocked == nil {
		return nil
	}
	sort.Strings(blocked)
	return &DeadlockError{At: at, Blocked: blocked}
}

// resume is a thread as the Action that switches into it.
type resume Thread

func (r *resume) Fire() {
	t := (*Thread)(r)
	t.ln.transfer(t)
}

// fireInline fires, where the caller stands, an event this lane would
// otherwise schedule for time at — if it is the very event the lane would
// pop next: at lies inside the current window (runWindow's bound) and
// strictly before everything queued — strictly, because a queued event
// with the same timestamp was scheduled earlier and fires first. Firing
// is runWindow's bookkeeping: the seq the event would have taken, the
// clock, the counts. It reports whether it fired; if not, nothing changed
// and the caller schedules the event as usual.
func (ln *Lane) fireInline(at Time) bool {
	if at >= min(ln.limit, ln.winCap) || at >= ln.nextTime() || ln.k.noShortcuts {
		return false
	}
	ln.seq++
	ln.now = at
	ln.fired++
	return true
}

// transfer runs thread t from the lane's event loop, at the event that
// resumes it, and returns when t is off the CPU again or finished. It
// must only be called from the lane's event loop.
//
// A thread with steps (Stepper: a stepper thread's body, or what a thread
// with a carrier waits on in RunSteps) is not switched into: the lane
// calls the next step itself. Only when a carrier's steps are done is its
// thread switched in, and a stepper thread whose steps are done ends
// here. A thread with no carrier yet takes one here (takeCarrier); a
// thread that finishes gives its carrier back to the lane's idle list.
func (ln *Lane) transfer(t *Thread) {
	if t.state == stateDone {
		return
	}
	if t.blocked {
		t.blocked = false
		if ln.tracing {
			t.Trace().Span("blocked", t.parkedAt, ln.now)
		}
	}
	if s := t.steps; s != nil && !ln.k.noShortcuts {
		t.state = stateRunning
		ln.cur = t
		done := ln.step(t, s)
		ln.cur = nil
		if !done || t.panicked != nil {
			ln.noteFailure(t)
			return
		}
		t.steps = nil
		if t.c == nil {
			t.state = stateDone
			ln.live--
			return
		}
	}
	c := t.c
	if c == nil {
		c = ln.takeCarrier()
		c.t, t.c = t, c
	}
	t.state = stateRunning
	ln.cur = t
	ln.switches++
	t.switches++
	c.next()
	ln.cur = nil
	if t.state == stateDone {
		t.c, c.idle, ln.idle = nil, ln.idle, c
	}
	ln.noteFailure(t)
}

// step calls s's next step for t on the lane, where a panic is t's, as if
// its body had raised it on its own stack.
func (ln *Lane) step(t *Thread, s Stepper) (done bool) {
	defer func() {
		if r := recover(); r != nil {
			t.panicked = &ThreadPanic{Thread: t.Name(), Value: r, Stack: string(debug.Stack())}
		}
	}()
	return s.Step(t)
}

// noteFailure makes t's panic, if it raised one, the lane's failure.
func (ln *Lane) noteFailure(t *Thread) {
	if t.panicked != nil && ln.failure == nil {
		ln.failure = t.panicked
	}
}

// stopThreads releases every unfinished thread of the lane after a
// failed run, and stops every carrier the lane holds. Stopping a
// switched-out thread's carrier unwinds the body through Thread.run,
// which does the end-of-thread accounting; a thread that never ran has no
// carrier, so its accounting is done here.
func (ln *Lane) stopThreads() {
	for _, t := range ln.threads {
		if t.state == stateDone {
			continue
		}
		if c := t.c; c != nil {
			c.stop()
			t.c = nil
		}
		if t.state != stateDone {
			t.state = stateDone
			ln.live--
		}
	}
	stopCarriers(ln.idle)
	ln.idle = nil
}
