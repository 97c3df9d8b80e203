package sim

// The event queue is the hottest data structure in the harness: every
// message hop, thread switch, and timer passes through it once. Two
// structural choices keep it allocation-free in steady state:
//
//   - events are values, not pointers. The binary heap is a value slice
//     with manual sift-up/sift-down (container/heap would force one heap
//     allocation per event to box it into an interface), so scheduling
//     reuses the slice's capacity after warm-up.
//   - zero-delay events bypass the heap entirely. Spawn, Wake, and Yield
//     all schedule at the current instant; those events land in a FIFO
//     ring, turning the very common At(0, ...) from an O(log n) sift
//     into a store-and-increment.
//
// Correctness of the split: the kernel pops events in (time, seq) order.
// Ring entries are pushed with at == now, and virtual time never
// decreases, so the ring is already sorted by (at, seq) and its head is
// its minimum. A heap event can only share a ring event's timestamp if
// it was scheduled strictly earlier (a positive delay landing at time T
// must have been pushed before time reached T), i.e. with a smaller seq
// — so on timestamp ties the heap entry always fires first, and the
// merge in Run needs no seq comparison.

// Action is what an event does when it fires. An event holds one, and
// nothing else: a thread to resume and a func() to call both arrive as an
// Action (an unexported pointer conversion of the *Thread; Func), and so
// does any value a layer already owns that knows what its arrival means —
// a message in flight needs no closure to be scheduled. Converting a
// pointer or a func to an Action allocates nothing.
type Action interface{ Fire() }

// Func is a func() as an Action.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// event is a scheduled occurrence. Events with equal times fire in the
// order they were scheduled (seq), which makes the simulation
// deterministic. It is 32 bytes and has to stay so (TestEventSize): the
// heap and the ring move events by value, and one more word turns each
// move from four inline stores into a block copy.
type event struct {
	at  Time
	seq uint64
	a   Action
}

// before reports whether a fires ahead of b in the total event order.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a value-based binary min-heap ordered by (at, seq).
type eventHeap []event

func (h eventHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h[r].before(&h[l]) {
			m = r
		}
		if !h[m].before(&h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func (ln *Lane) heapPush(e event) {
	ln.heap = append(ln.heap, e)
	ln.heap.siftUp(len(ln.heap) - 1)
}

func (ln *Lane) heapPop() event {
	h := ln.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release the action to the GC
	ln.heap = h[:n]
	ln.heap.siftDown(0)
	return top
}

// fifoRing is a growable circular queue of same-instant events. Capacity
// is always a power of two so the index wrap is a mask.
type fifoRing struct {
	buf  []event
	head int
	n    int
}

func (r *fifoRing) push(e event) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = e
	r.n++
}

func (r *fifoRing) grow() {
	newCap := 64
	if len(r.buf) > 0 {
		newCap = len(r.buf) * 2
	}
	nb := make([]event, newCap)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = nb, 0
}

func (r *fifoRing) pop() event {
	e := r.buf[r.head]
	r.buf[r.head] = event{} // release the action to the GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return e
}
