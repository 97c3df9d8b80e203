package sim

import "unsafe"

// LaneArrays keeps what the lanes of a finished world grew — each lane's
// event heap, zero-delay ring, boundary log and thread list — for the
// lanes of the next world configured with it (ConfigureLanes), so that a
// world on a warm owner grows none of them. Lane i of a world starts on
// what lane i of the worlds before it left. The owner (pami.Shelf) lends
// it to one kernel at a time and takes the arrays back, cleared, once that
// kernel's world has ended (Reclaim): they pin no event, Action or thread
// of it. A thread's own memory (the lane's slab) is not kept, because a
// finished world's runtimes still name their threads.
type LaneArrays struct {
	kept []laneArrays
	k    *Kernel // whose lanes hold the arrays, until Reclaim
}

// laneArrays is one lane's growable arrays, all of length zero.
type laneArrays struct {
	heap     eventHeap
	ring     []event // a power of two long, as fifoRing needs
	deferred []deferredOp
	threads  []*Thread
}

// arraysKeepMax is the most bytes an array may hold and still be kept,
// as mem.KeepMax is for payload classes: what a long-lived owner keeps is
// small arrays for each lane of the widest world it ran, never a queue
// one busy lane of one world grew.
const arraysKeepMax = 32 << 10

// keepable returns s, cleared, if it is small enough to keep, else nil.
func keepable[T any](s []T) []T {
	clear(s)
	var zero T
	if uintptr(cap(s))*unsafe.Sizeof(zero) > arraysKeepMax {
		return nil
	}
	return s
}

// lend hands the arrays to k's lanes. Arrays another kernel still holds
// come back first.
func (a *LaneArrays) lend(k *Kernel) {
	a.Reclaim()
	a.k = k
	for i, ln := range k.lanes[:min(len(k.lanes), len(a.kept))] {
		s := &a.kept[i]
		ln.heap, ln.ring.buf, ln.deferred, ln.threads = s.heap, s.ring, s.deferred, s.threads
		*s = laneArrays{}
	}
}

// Reclaim takes the arrays back from the kernel it lent them to, whose
// world has ended: each is cleared, so nothing of that world stays
// reachable through it, and the kernel's lanes let go of them, so the
// kernel can neither run again nor see the next world's events. A no-op
// when no kernel holds them.
func (a *LaneArrays) Reclaim() {
	k := a.k
	if k == nil {
		return
	}
	a.k = nil
	if n := len(k.lanes); n > len(a.kept) {
		a.kept = append(a.kept, make([]laneArrays, n-len(a.kept))...)
	}
	for i, ln := range k.lanes {
		a.kept[i] = laneArrays{
			heap:     keepable(ln.heap)[:0],
			ring:     keepable(ln.ring.buf),
			deferred: keepable(ln.deferred)[:0],
			threads:  keepable(ln.threads)[:0],
		}
		ln.heap, ln.ring, ln.deferred, ln.threads = nil, fifoRing{}, nil, nil
	}
}
