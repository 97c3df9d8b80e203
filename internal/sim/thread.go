package sim

import (
	"fmt"
	"runtime/debug"

	"repro/internal/obs"
)

type threadState uint8

const (
	stateNew threadState = iota
	stateRunning
	stateSleeping
	stateParked
	stateReady
	stateDone
)

func (s threadState) String() string {
	switch s {
	case stateNew:
		return "new"
	case stateRunning:
		return "running"
	case stateSleeping:
		return "sleeping"
	case stateParked:
		return "parked"
	case stateReady:
		return "ready"
	case stateDone:
		return "done"
	}
	return "?"
}

// Thread is a simulated thread of execution. Within a lane, exactly one
// thread (or the lane's event loop) runs at any real-time instant;
// threads advance virtual time only via Sleep and blocking
// synchronization. A thread is pinned to one lane for its whole life:
// all of its scheduling stays lane-local, and cross-lane interaction
// must go through Lane.Defer.
//
// A thread runs on a carrier, an iter.Pull coroutine (carrier.go): the
// lane's event loop resumes it with next, and the thread hands control
// back with yield. Both are direct switches on the calling OS thread — no
// run queue, no wake-up of an idle P. The runtime refuses a coroutine
// switch when the two sides disagree about runtime.LockOSThread, and
// nothing in this module calls it; a simulated thread's body must not
// either. The lane hands the thread a carrier at its first switch-in and
// takes it back when the body returns, so a thread that never runs — or
// whose lane runs its idle passes for it (SetIdlePass) — never holds one,
// and a finished thread holds none either.
//
// Threads live in their lane's slab (Lane.newThread) and are only ever
// handled by pointer.
type Thread struct {
	k  *Kernel
	ln *Lane
	// name is the thread's name — for an indexed thread (SpawnIndexed)
	// only its prefix while prefixOnly is set: the first Name call formats
	// and keeps "prefix-NNNN". A world of p ranks names 2p threads nobody
	// reads unless a trace, a deadlock report or a panic asks.
	name       string
	prefixOnly bool
	state      threadState
	wakeBit    bool
	track      obs.TrackKind
	trace      *obs.Track // this thread's track in its lane's registry; nil until the first record
	index      int        // the spawner's index; -1 for a plainly named thread
	fn         func(*Thread)

	c *carrier // the coroutine the thread runs on; nil before its first switch-in and once it has finished
	// A park the lane finishes (ParkThenSleep): when it began, the sleep to
	// follow it, and the flag that calls the sleep off. parkCancel is
	// non-nil exactly while such a park is pending.
	parkStart  Time
	parkSleep  Time
	parkCancel *bool
	// The idle pass (SetIdlePass): the lane runs idle in place of a
	// switch-in while the thread has no carrier, then parks it in
	// ParkThenSleep(idleSleep, idleCancel).
	idle       func(*Thread) bool
	idleSleep  Time
	idleCancel *bool
	panicked   *ThreadPanic
}

// Spawn creates a thread that begins executing fn at the current virtual
// time (after already-scheduled same-time events). On a multi-lane
// kernel threads must be pinned explicitly; use SpawnOn.
func (k *Kernel) Spawn(name string, fn func(*Thread)) *Thread {
	if k.multi {
		panic("sim: Spawn on a multi-lane kernel; use SpawnOn")
	}
	return k.spawnOn(&k.Lane, name, -1, fn)
}

// SpawnOn creates a thread pinned to lane ln, beginning at the lane's
// current time. LaneOf names the right lane on either kind of kernel.
func (k *Kernel) SpawnOn(ln *Lane, name string, fn func(*Thread)) *Thread {
	return k.spawnOn(ln, name, -1, fn)
}

// SpawnIndexed is SpawnOn for one of many like threads — a world's rank
// mains, its progress threads: the thread is named "prefix-NNNN" (index,
// zero-padded to four digits), formatted only if something reads the
// name, and carries index (Thread.Index), so one fn can serve every
// index instead of one closure per thread capturing it. index must be
// non-negative.
func (k *Kernel) SpawnIndexed(ln *Lane, prefix string, index int, fn func(*Thread)) *Thread {
	if index < 0 {
		panic("sim: SpawnIndexed with a negative index")
	}
	return k.spawnOn(ln, prefix, index, fn)
}

func (k *Kernel) spawnOn(ln *Lane, name string, index int, fn func(*Thread)) *Thread {
	t := ln.newThread()
	*t = Thread{k: k, ln: ln, name: name, prefixOnly: index >= 0, index: index, fn: fn}
	ln.threads = append(ln.threads, t)
	ln.live++
	ln.scheduleThread(0, t)
	// A spawn from outside any window (setup code, a coordinator event)
	// may wake an idle lane; its horizon-tree leaf is stale until the
	// next round start. Spawns from inside a window come from the lane's
	// own threads, which already hold the lane's leaf dirty via the
	// runnable set.
	if k.multi && ln != &k.Lane && !k.inWindow.Load() {
		k.laneInserted = true
		k.markDirty(ln)
	}
	return t
}

// run is the thread's life on its carrier: the body, then the
// end-of-thread accounting. It returns to the carrier, which then drops
// the thread and goes idle.
func (t *Thread) run() {
	defer func() {
		// The panic must not leave the carrier: Pull would re-raise it
		// in the lane's event loop.
		if r := recover(); r != nil {
			if _, stopped := r.(threadStopped); !stopped {
				t.panicked = &ThreadPanic{Thread: t.Name(), Value: r, Stack: string(debug.Stack())}
			}
		}
		t.state = stateDone
		t.ln.live--
	}()
	t.fn(t)
}

// threadChunkMax bounds a lane's thread slab chunks: a BG/Q node's 16
// ranks with a progress thread each fill half of one.
const threadChunkMax = 64

// newThread cuts the next Thread from the lane's slab. A new chunk holds
// twice the threads the lane has so far, between 2 and threadChunkMax; a
// full chunk is left behind rather than grown, so a *Thread stays valid
// for the life of the kernel.
func (ln *Lane) newThread() *Thread {
	if len(ln.slab) == cap(ln.slab) {
		ln.slab = make([]Thread, 0, min(max(2*len(ln.threads), 2), threadChunkMax))
	}
	ln.slab = ln.slab[:len(ln.slab)+1]
	return &ln.slab[len(ln.slab)-1]
}

// Name returns the thread's name. An indexed thread's is formatted here,
// on first use, and kept.
func (t *Thread) Name() string {
	if t.prefixOnly {
		t.name = fmt.Sprintf("%s-%04d", t.name, t.index)
		t.prefixOnly = false
	}
	return t.name
}

// Index returns the index the thread was spawned with (SpawnIndexed), or
// -1 for a plainly named thread.
func (t *Thread) Index() int { return t.index }

// Kernel returns the kernel this thread belongs to.
func (t *Thread) Kernel() *Kernel { return t.k }

// Lane returns the lane this thread is pinned to (the kernel's base lane
// on a single-lane kernel).
func (t *Thread) Lane() *Lane { return t.ln }

// SetObsTrack assigns the trace track kind this thread's run/block spans
// are recorded under (default TrackOther). The spawner sets it before
// the thread first runs; the ARMCI runtime uses TrackRank for main
// threads and TrackProgress for asynchronous progress threads.
func (t *Thread) SetObsTrack(kind obs.TrackKind) { t.track = kind }

// SetIdlePass lets the lane serve a polling thread without switching into
// it while it has nothing to do. The thread's body must be the loop
//
//	for !*cancel {
//		pass's work, blocking where pass would decline
//		if *cancel {
//			return
//		}
//		th.ParkThenSleep(d, cancel)
//	}
//
// and pass must be that work done from the lane: it either does all of it
// without blocking, sleeping or waking the thread, and returns true, or
// does nothing and returns false. Until the thread first has a carrier,
// each time the lane would switch in it ends the thread if *cancel holds,
// else runs pass and, when pass ran, parks the thread in ParkThenSleep(d,
// cancel) itself. Only a declined pass takes a carrier, and the body
// starts from the top, where the thread would have been anyway. Event
// order and counts, spans and the pass's own side effects are those of
// the switched-in thread; only Kernel.Switches falls. The spawner sets it
// before the thread first runs, like SetObsTrack.
func (t *Thread) SetIdlePass(pass func(*Thread) bool, d Time, cancel *bool) {
	if t.c != nil || t.state == stateDone {
		panic("sim: SetIdlePass on a thread that has run")
	}
	if d < 0 {
		panic("sim: negative sleep")
	}
	t.idle, t.idleSleep, t.idleCancel = pass, d, cancel
}

// Trace returns the thread's trace track — the kind SetObsTrack gave it,
// id Name — in its lane's registry: resolved at the first record and
// kept, so later records pay no lookup. It is nil while the lane keeps no
// trace (no registry, or a metrics-only one), and then the thread's name
// is never formatted for it. Records on the nil handle are no-ops.
func (t *Thread) Trace() *obs.Track {
	if t.trace == nil && t.ln.tracing {
		t.resolveTrace()
	}
	return t.trace
}

// resolveTrace is Trace's first record on a tracing lane, out of line so
// Trace inlines into every recording site.
func (t *Thread) resolveTrace() { t.trace = t.ln.obs.Track(t.track, t.Name()) }

// Now returns the current virtual time of the thread's lane.
func (t *Thread) Now() Time { return t.ln.now }

// threadStopped is the panic value that unwinds a switched-out thread
// when a failed Run stops its carrier; Thread.run swallows it.
type threadStopped struct{}

// switchOut yields to the lane's event loop and blocks until resumed.
func (t *Thread) switchOut() {
	if !t.c.yield(struct{}{}) {
		panic(threadStopped{})
	}
}

// Sleep advances this thread's virtual time by d. Other threads and events
// run in the meantime. Sleep models busy computation as well as idle
// waiting; the simulation makes no distinction.
//
// A thread leaves the CPU only when something else has to run: if nothing
// is due before the sleep ends, the lane would switch out of the thread,
// pop its wake-up and switch straight back, so Sleep fires the wake-up
// where it stands (Lane.fireInline) and returns.
func (t *Thread) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if d == 0 {
		return
	}
	if !t.sleepFor(d) {
		t.switchOut()
	}
}

// sleepFor starts a sleep of d > 0 for t — called by t itself (Sleep) or by
// its lane (transfer, finishing a ParkThenSleep) — and reports whether the
// sleep is already over: its wake-up was the lane's next event and has
// been fired and counted. Otherwise the wake-up is queued and t must be
// off the CPU until it fires.
func (t *Thread) sleepFor(d Time) (over bool) {
	ln := t.ln
	wake := ln.now + d
	if ln.tracing {
		// Sleep models busy computation (and timed waits); record it as
		// the thread's "run" span on its timeline.
		t.Trace().Span("run", ln.now, wake)
	}
	if ln.fireInline(wake) {
		return true
	}
	t.state = stateSleeping
	ln.scheduleThread(d, t)
	return false
}

// Yield reschedules the thread at the current time behind already-pending
// same-time events.
func (t *Thread) Yield() {
	t.state = stateReady
	t.ln.scheduleThread(0, t)
	t.switchOut()
}

// Park blocks the thread until another thread or event calls Wake on it.
// Wakes are binary-semaphore-like: a Wake delivered while the thread is
// running or sleeping makes the next Park return immediately, and multiple
// Wakes coalesce. Callers must therefore re-check their condition in a loop.
func (t *Thread) Park() {
	if t.ln.cur != t {
		panic("sim: Park called from wrong context")
	}
	if t.wakeBit {
		t.wakeBit = false
		return
	}
	start := t.ln.now
	t.state = stateParked
	t.switchOut()
	if t.ln.tracing {
		t.Trace().Span("blocked", start, t.ln.now)
	}
}

// ParkThenSleep is Park followed, unless *cancel holds when the wake
// arrives, by Sleep(d) — the shape of a progress thread, which parks until
// traffic arrives, gives up if it was stopped meanwhile, and otherwise pays
// its wake-up latency before serving. As two calls the thread is switched
// in at the wake only to start the sleep and switch out again; here the
// lane does that (transfer): the thread resumes once, when the sleep is
// over or was called off. Simulated time, event order and counts, and the
// "blocked" and "run" spans are those of the two calls. cancel must not be
// nil; the caller reads it again after the return to learn which it was.
func (t *Thread) ParkThenSleep(d Time, cancel *bool) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if t.wakeBit || t.k.noShortcuts {
		// The wake is already here, so there is no park for the lane to
		// finish.
		t.Park()
		if !*cancel {
			t.Sleep(d)
		}
		return
	}
	if t.ln.cur != t {
		panic("sim: Park called from wrong context")
	}
	t.parkStart, t.parkSleep, t.parkCancel = t.ln.now, d, cancel
	t.state = stateParked
	t.switchOut()
}

// Waker returns the Action that wakes t: what a timed wait schedules for
// its deadline, in t's lane.
func (t *Thread) Waker() Action { return (*wakeup)(t) }

// wakeup is a thread as the Action that wakes it.
type wakeup Thread

func (w *wakeup) Fire() {
	t := (*Thread)(w)
	t.k.Wake(t)
}

// Wake unparks thread t (or arms its wake bit if it is not parked). Safe to
// call from any simulation context within t's lane: another thread or an
// event callback. Cross-lane wakes are forbidden — they must be carried
// by a deferred operation into the target's lane first.
func (k *Kernel) Wake(t *Thread) {
	switch t.state {
	case stateParked:
		t.state = stateReady
		if t.ln.tracing {
			t.Trace().Instant("wake", t.ln.now)
		}
		t.ln.scheduleThread(0, t)
	case stateDone, stateReady:
		// Nothing to do: thread finished, or a wake is already in flight.
	default:
		t.wakeBit = true
	}
}
