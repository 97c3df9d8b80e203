package sim

import (
	"iter"
	"sync"
	"sync/atomic"
)

// A carrier is the coroutine a simulated thread runs on. It outlives the
// thread: once the body returns, the carrier drops the thread, switches
// back to its lane as idle and waits for the next thread the lane hands
// it. A lane takes a carrier at a thread's first switch-in — its own idle
// one, else a pooled one, else a new one (Lane.takeCarrier) — and a
// finished thread's carrier goes back on the lane's idle list at once.
// Every run of a world spawns the same threads, so the second run of a
// world makes no coroutine at all.
//
// A carrier is made on one goroutine and may be resumed from any other,
// one at a time: a lane's windows move between workers, and a pooled
// carrier between kernels. The pool's mutex orders the hand-over; within
// a run the lane's ownership does.
type carrier struct {
	t     *Thread                 // the thread it runs; nil while idle
	idle  *carrier                // the next carrier on the idle list that holds this one
	next  func() (struct{}, bool) // lane side: run t until it switches out or finishes
	yield func(struct{}) bool     // thread side: switch out; false once stop was called
	stop  func()                  // lane side: unwind t, if any, and end the coroutine
}

// carrierPoolCap bounds the carriers kept between runs: a main and a
// progress thread for each of the 4096 ranks the wire API admits. An idle
// carrier is a parked goroutine — its stack, 2 KiB or more (4 KiB after a
// Fig 9 world), and about 400 B of heap — so a full pool holds 20 MiB or
// more; carriers past the cap are stopped.
const carrierPoolCap = 8192

// carrierChunk is how many carriers a lane cuts from one allocation.
const carrierChunk = 32

// carrierPool holds the idle carriers of finished runs, for any kernel of
// the process to take: n of them, listed through carrier.idle.
var carrierPool struct {
	mu   sync.Mutex
	free *carrier
	n    int
}

// carriersMade counts the coroutines made so far; tests read it.
var carriersMade atomic.Int64

// loop is the carrier's coroutine body: each thread it is handed, in
// turn, until stop. It names no thread, so once c.t is cleared no frame
// of an idle carrier holds the thread, and through it the kernel.
func (c *carrier) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.t.run()
		c.t = nil
		if !yield(struct{}{}) {
			return
		}
	}
}

// takeCarrier returns an idle carrier for the lane's next thread.
func (ln *Lane) takeCarrier() *carrier {
	if c := ln.idle; c != nil {
		ln.idle, c.idle = c.idle, nil
		return c
	}
	carrierPool.mu.Lock()
	if c := carrierPool.free; c != nil {
		carrierPool.free, c.idle = c.idle, nil
		carrierPool.n--
		carrierPool.mu.Unlock()
		return c
	}
	carrierPool.mu.Unlock()
	if len(ln.carrierSlab) == cap(ln.carrierSlab) {
		ln.carrierSlab = make([]carrier, 0, carrierChunk)
	}
	ln.carrierSlab = ln.carrierSlab[:len(ln.carrierSlab)+1]
	c := &ln.carrierSlab[len(ln.carrierSlab)-1]
	c.next, c.stop = iter.Pull(c.loop)
	carriersMade.Add(1)
	return c
}

// poolCarriers hands the lane's idle carriers to the pool after a
// successful run, and stops those past its cap.
func (ln *Lane) poolCarriers() {
	c := ln.idle
	if c == nil {
		return
	}
	ln.idle = nil
	carrierPool.mu.Lock()
	for c != nil && carrierPool.n < carrierPoolCap {
		c, c.idle, carrierPool.free = c.idle, carrierPool.free, c
		carrierPool.n++
	}
	carrierPool.mu.Unlock()
	stopCarriers(c)
}

// stopCarriers stops every carrier on the idle list that starts at c.
func stopCarriers(c *carrier) {
	for c != nil {
		next := c.idle
		c.idle = nil
		c.stop()
		c = next
	}
}

// DrainCarrierPool stops every pooled carrier, so that the process's next
// run makes its coroutines anew, and returns how many it stopped. The
// host-cost budgets use it to measure a cold process; a simulation never
// needs it.
func DrainCarrierPool() int {
	carrierPool.mu.Lock()
	c, n := carrierPool.free, carrierPool.n
	carrierPool.free, carrierPool.n = nil, 0
	carrierPool.mu.Unlock()
	stopCarriers(c)
	return n
}
