package sim

import "repro/internal/obs"

// cond is the parked-thread list behind Completion and WaitGroup. As
// with sync.Cond, waiters must re-check their predicate in a loop:
// broadcast wakes everything and direct Wakes can cause spurious returns.
// Nearly every list holds one thread — the one that issued the operation
// — so the first waiter is a field and only a second one makes a slice.
type cond struct {
	k     *Kernel
	first *Thread
	more  []*Thread
}

// add registers t for the next broadcast.
func (c *cond) add(t *Thread) {
	if c.first == nil {
		c.first = t
		return
	}
	c.more = append(c.more, t)
}

// wait parks t until the next broadcast.
func (c *cond) wait(t *Thread) {
	c.add(t)
	t.Park()
}

// broadcast wakes every waiting thread, in registration order.
func (c *cond) broadcast() {
	if c.first == nil {
		return
	}
	c.k.Wake(c.first)
	c.first = nil
	for i, t := range c.more {
		c.k.Wake(t)
		c.more[i] = nil
	}
	c.more = c.more[:0]
}

// FIFO is a first-in first-out queue on a ring: an array a power of two
// long, a head index and a count. Pop clears the slot it vacates, so what
// was served does not stay reachable, and the array grows, doubling, only
// when every slot holds a queued item: how long it is depends on the most
// items the queue ever held at once, never on the order they came and went
// in, so an owner that keeps it across a reset (Empty) never grows it
// again for the same traffic. The zero value is an empty queue.
type FIFO[T any] struct {
	items []T // the ring; nil or a power of two long
	head  int
	n     int
}

// StartOn makes an empty queue hold its first len(buf) items in buf, an
// array its owner keeps inline, so a queue that rarely holds more costs
// no array of its own; past that it grows on the heap as usual. len(buf)
// must be a power of two, and the owner must not move or be copied
// afterwards. A queue that already has an array — one it grew before its
// owner was reset (Empty) — keeps it.
func (q *FIFO[T]) StartOn(buf []T) {
	if q.items == nil {
		q.items = buf
	}
}

// Empty drops every queued item and keeps the array.
func (q *FIFO[T]) Empty() {
	for ; q.n > 0; q.n-- {
		var zero T
		q.items[q.head] = zero
		q.head = (q.head + 1) & (len(q.items) - 1)
	}
	q.head = 0
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.items) {
		grown := make([]T, max(1, 2*len(q.items)))
		for i := range q.n {
			grown[i] = q.items[(q.head+i)&(len(q.items)-1)]
		}
		q.items, q.head = grown, 0
	}
	q.items[(q.head+q.n)&(len(q.items)-1)] = v
	q.n++
}

// Pop removes and returns the oldest item; the queue must not be empty.
func (q *FIFO[T]) Pop() T {
	var zero T
	v := q.items[q.head]
	q.items[q.head] = zero // what was served must not stay reachable
	q.head = (q.head + 1) & (len(q.items) - 1)
	q.n--
	return v
}

// NoCopy makes `go vet` (copylocks) flag any copy of a value that holds
// one. State that lives inside its owner — a Mutex in a pami.Context, a
// Context, a Runtime or a mem.Space in a world-sized slice — must only
// ever be handled by pointer, and `x := c.Contexts[0]` compiles; with this
// it does not pass `make check`.
type NoCopy struct{}

// Lock and Unlock are what copylocks looks for; they do nothing.
func (*NoCopy) Lock()   {}
func (*NoCopy) Unlock() {}

// Mutex is a FIFO virtual-time mutex. Lock order is fair: threads acquire
// in arrival order, which keeps simulations deterministic and models a
// ticket lock (the PAMI context locks on BG/Q are effectively fair). The
// zero value is an unlocked mutex; it is meant to be embedded in what it
// guards and must not be copied.
type Mutex struct {
	_     NoCopy
	owner *Thread
	queue FIFO[lockWaiter]
	// Contended counts lock acquisitions that had to wait; useful for
	// reasoning about context-lock contention experiments.
	Contended uint64
	Acquired  uint64

	// Instrumentation (nil unless Instrument was called): wait time from
	// Lock entry to acquisition, hold time from acquisition to Unlock.
	waitHist   *obs.Histogram
	holdHist   *obs.Histogram
	acquiredAt Time
}

// lockWaiter is a thread in a mutex's queue, and when it joined it.
type lockWaiter struct {
	t     *Thread
	since Time
}

// Instrument records this mutex's lock wait time (Lock entry to
// acquisition) and hold time (acquisition to Unlock) into the given
// histograms, which a caller may share among many mutexes; nil handles
// record nothing.
func (m *Mutex) Instrument(wait, hold *obs.Histogram) {
	m.waitHist, m.holdHist = wait, hold
}

// TryLock acquires the mutex if it is free, counted and timed as Lock's
// uncontended path, and reports whether it did. It never blocks.
func (m *Mutex) TryLock(t *Thread) bool {
	if m.owner != nil {
		return false
	}
	m.Acquired++
	m.owner = t
	if m.waitHist != nil {
		m.waitHist.Observe(0)
		m.acquiredAt = t.Now()
	}
	return true
}

// Lock acquires the mutex, blocking in FIFO order.
func (m *Mutex) Lock(t *Thread) {
	for !m.LockStep(t) {
		t.switchOut()
	}
}

// LockStep is Lock for a step (Stepper): it reports whether t holds the
// mutex; if not, t is parked in its queue, and the step must return and
// call LockStep again when next called — as often as spurious wakes make
// it, until Unlock has handed t the mutex.
func (m *Mutex) LockStep(t *Thread) bool {
	for {
		switch {
		case t.lockQ != m:
			if m.TryLock(t) {
				return true
			}
			m.Acquired++
			m.Contended++
			m.queue.Push(lockWaiter{t: t, since: t.Now()})
			t.lockQ = m
		case m.owner == t:
			t.lockQ = nil
			return true
		}
		if !t.Await() {
			return false
		}
	}
}

// Unlock releases the mutex, handing it to the longest waiter if any.
func (m *Mutex) Unlock(t *Thread) {
	if m.owner != t {
		panic("sim: unlock of mutex not held by caller")
	}
	if m.holdHist != nil {
		m.holdHist.Observe(t.Now() - m.acquiredAt)
	}
	if m.queue.Len() == 0 {
		m.owner = nil
		return
	}
	next := m.queue.Pop()
	m.owner = next.t
	// Ownership transfers now; the waiter resumes via an event at this
	// virtual instant, so its wait and its hold time end and start here.
	m.acquiredAt = t.Now()
	if m.waitHist != nil {
		m.waitHist.Observe(m.acquiredAt - next.since)
	}
	t.k.Wake(next.t)
}

// Held reports whether t currently owns the mutex.
func (m *Mutex) Held(t *Thread) bool { return m.owner == t }

// Completion is a one-shot latch: Finish releases all current and future
// waiters. It is the unit of non-blocking operation tracking throughout
// the communication stack.
type Completion struct {
	done bool
	// retired marks a completion its owner has released (Retire):
	// finishing it again is a reference that outlived the operation.
	retired bool
	// gen counts the operations the completion tracked before its current
	// one (Retire moves it on), so a late reference can tell it is stale.
	gen  uint32
	cond cond
}

// NewCompletion returns an unfinished completion bound to k.
func NewCompletion(k *Kernel) *Completion {
	return &Completion{cond: cond{k: k}}
}

// MakeCompletion returns an unfinished completion bound to k, by value,
// for an owner that holds it inline (an operation handle) instead of as a
// heap object of its own. Copy it only before first use.
func MakeCompletion(k *Kernel) Completion {
	return Completion{cond: cond{k: k}}
}

// Done reports whether Finish has been called.
func (c *Completion) Done() bool { return c.done }

// Finish releases all waiters. Finishing twice panics: double completion
// is always a protocol bug.
func (c *Completion) Finish() {
	if c.done {
		c.checkLive()
		panic("sim: completion finished twice")
	}
	c.done = true
	c.cond.broadcast()
}

// FinishOnce releases all waiters if the completion is still pending and
// is a no-op otherwise. Retry protocols use it where an operation may
// legitimately complete more than once — a duplicated network delivery,
// or a retry racing its own timed-out original — without turning the
// benign second completion into a crash. Code that knows completion must
// be unique should keep using Finish.
func (c *Completion) FinishOnce() {
	if c.done {
		c.checkLive()
		return
	}
	c.done = true
	c.cond.broadcast()
}

// Gen returns the completion's generation: how often it was retired. A
// reference that may outlive its operation (a duplicated delivery) keeps
// the generation it was made at and finishes nothing once it differs.
func (c *Completion) Gen() uint32 { return c.gen }

// Retire ends the operation c tracked, for an owner that recycles
// completions: its generation moves on, and a Finish or FinishOnce that
// reaches a retired, finished completion panics, where on a reused one it
// would have finished the next operation early.
func (c *Completion) Retire() {
	c.retired = true
	c.gen++
}

// Reuse makes c, retired or never used, an unfinished completion bound to
// k for its owner's next operation, in place; its generation stays, and
// so does the room its waiter list grew (a retried wait registers again).
func (c *Completion) Reuse(k *Kernel) {
	clear(c.cond.more)
	*c = Completion{gen: c.gen, cond: cond{k: k, more: c.cond.more[:0]}}
}

// Reset empties c for its owner's next world, in place: a zero
// completion but for the room its waiter list grew.
func (c *Completion) Reset() {
	clear(c.cond.more)
	*c = Completion{cond: cond{more: c.cond.more[:0]}}
}

// checkLive panics on a retired completion; only a finished completion
// can be retired, so the check rides the already-done branch.
func (c *Completion) checkLive() {
	if c.retired {
		panic("sim: retired completion finished: a reference outlived its operation")
	}
}

// Wait blocks t until Finish is called. Returns immediately if already done.
func (c *Completion) Wait(t *Thread) {
	for !c.done {
		c.cond.wait(t)
	}
}

// AddWaiter registers t to be woken when Finish fires, without parking.
// Used by progress loops that park once while subscribed to several wake
// sources; spurious wakes are expected and must be handled by re-checking.
func (c *Completion) AddWaiter(t *Thread) {
	if c.done {
		c.cond.k.Wake(t)
		return
	}
	c.cond.add(t)
}

// Waiting returns how many registrations Finish would wake: threads in
// Wait plus AddWaiter calls since the completion was made.
func (c *Completion) Waiting() int {
	if c.cond.first == nil {
		return 0
	}
	return 1 + len(c.cond.more)
}

// WaitGroup counts outstanding work items in virtual time.
type WaitGroup struct {
	count int
	cond  cond
}

// NewWaitGroup returns a WaitGroup bound to k.
func NewWaitGroup(k *Kernel) *WaitGroup {
	return &WaitGroup{cond: cond{k: k}}
}

// Add adjusts the counter by delta; going negative panics.
func (w *WaitGroup) Add(delta int) {
	w.count += delta
	if w.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if w.count == 0 {
		w.cond.broadcast()
	}
}

// Done decrements the counter.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks t until the counter reaches zero.
func (w *WaitGroup) Wait(t *Thread) {
	for w.count != 0 {
		w.cond.wait(t)
	}
}
