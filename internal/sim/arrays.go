package sim

import "unsafe"

// KeptLanes keeps the lanes of a finished world — each Lane with its event
// heap, zero-delay ring, boundary log, thread list and the Threads it cut —
// for the lanes of the next world configured with it (ConfigureLanes), so
// that a world on a warm owner makes none of them: lane i of a world is
// lane i of the worlds before it, reset in place. The owner (pami.Shelf)
// lends them to one kernel at a time. That kernel's world stays readable
// until the next kernel takes the lanes (take, GiveBack): only then are they given
// back, each reset so that nothing of the world stays reachable through
// it and only what it grew survives. A kernel that did not finish
// (Kernel.Finished) gives nothing back: its lanes are dropped. Under the
// race detector they are poisoned and dropped instead of reset, so a read
// of a world after the next one was lent fails loudly.
type KeptLanes struct {
	lanes []*Lane // reset, but for the first len(k.lanes) while k holds them
	k     *Kernel // the kernel the lanes were last lent to, until take
}

// arraysKeepMax is the most bytes a lane's array may hold and still be
// kept, as mem.KeepMax is for payload classes: what a long-lived owner
// keeps is small arrays for each lane of the widest world it ran, never a
// queue one busy lane of one world grew.
const arraysKeepMax = 32 << 10

// keepable returns s with length zero if it is small enough to keep, else
// nil. What it held must already be cleared.
func keepable[T any](s []T) []T {
	var zero T
	if uintptr(cap(s))*unsafe.Sizeof(zero) > arraysKeepMax {
		return nil
	}
	return s[:0]
}

// kept returns the ring, empty, on its buffer if that is keepable. A
// ring's buffer is all of it: a power of two long.
func (r *fifoRing) kept() fifoRing {
	if keepable(r.buf) == nil {
		return fifoRing{}
	}
	return fifoRing{buf: r.buf}
}

// take gives back the lanes the last kernel held and returns n lanes for
// k: the kept ones first, then new ones.
func (a *KeptLanes) take(k *Kernel, n int) []*Lane {
	a.GiveBack()
	a.k = k
	if n > len(a.lanes) {
		lanes := make([]*Lane, n)
		copy(lanes, a.lanes)
		for i := len(a.lanes); i < n; i++ {
			lanes[i] = new(Lane)
		}
		a.lanes = lanes
	}
	return a.lanes[:n]
}

// GiveBack resets the lanes of the last kernel lent them, whose world has
// ended, as the next take does first; a no-op when none holds them.
func (a *KeptLanes) GiveBack() {
	k := a.k
	if k == nil {
		return
	}
	a.k = nil
	if !k.finished {
		a.lanes = nil
		return
	}
	for i, ln := range k.lanes {
		if raceEnabled {
			a.lanes[i] = ln.retire()
		} else {
			ln.reset()
		}
	}
}

// reset clears the lane of its finished world in place: every thread it
// spawned, and then every field but the arrays it grew, cleared, and the
// threads it cut, which its next world's spawns take again (newThread).
// A finished world left no event queued and no carrier idle (Run pools
// them), so only the boundary log has entries to clear.
func (ln *Lane) reset() {
	for _, t := range ln.threads {
		*t = Thread{}
	}
	clear(ln.deferred)
	*ln = Lane{
		heap:     keepable(ln.heap),
		ring:     ln.ring.kept(),
		deferred: keepable(ln.deferred),
		threads:  keepable(ln.threads), // past its length: the threads, for newThread
		slab:     ln.slab,
	}
}

// retire is reset under the race detector: the lane's arrays move to a new
// lane, cleared of the threads they listed, and the lane and its threads
// are poisoned, so a reader that outlived the world panics on them.
func (ln *Lane) retire() *Lane {
	for _, t := range ln.threads {
		*t = Thread{index: -1}
	}
	clear(ln.threads[:cap(ln.threads)])
	clear(ln.deferred)
	fresh := &Lane{
		heap:     keepable(ln.heap),
		ring:     ln.ring.kept(),
		deferred: keepable(ln.deferred),
		threads:  keepable(ln.threads),
	}
	*ln = Lane{idx: -1}
	return fresh
}
