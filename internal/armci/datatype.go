package armci

import (
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/internal/pami"
	"repro/internal/sim"
)

// opSlot is the host record of one operation: the completion it ends
// with, the op set of a chunk-listed RDMA transfer, and a vector
// operation's completion list. Slots are cut from per-runtime chunks of
// chunkLen and go back, when the operation is over (releaseSlot), to a
// free list linked through next, so a rank in steady state allocates none
// and one that never operates allocates no chunk. Its completion's
// generation counts its releases: what tells a Handle, or a late landing,
// of a finished operation from one of the slot's current operation.
type opSlot struct {
	rt   *Runtime
	next *opSlot // the free list's next slot, while this one is on it
	comp sim.Completion
	set  pami.OpSet
	// comps lists a vector operation's segment completions (nil for any
	// other). A vector slot is never released: its segments' slots are
	// not, so the list stays valid for as long as a Handle can read it.
	comps []*sim.Completion
}

// chunkLen is how many operation slots, or pending-request slots, a
// runtime allocates at once.
const chunkLen = 16

// takeSlot returns a slot for a new operation, its completion unfinished:
// a released one when there is one, else the next of the current chunk.
func (rt *Runtime) takeSlot() *opSlot {
	s := rt.slotFree
	if s != nil {
		rt.slotFree, s.next = s.next, nil
	} else {
		if len(rt.slotChunk) == 0 {
			rt.slotChunk = make([]opSlot, chunkLen)
		}
		s = &rt.slotChunk[0]
		rt.slotChunk = rt.slotChunk[1:]
		s.rt = rt
	}
	s.comp.Reuse(rt.W.K)
	return s
}

// releaseSlot ends the operation in s. Retiring its completion moves the
// generation on, so every Handle to the operation reads it as done, and a
// late landing of a duplicated message, which pami tags with the
// generation at issue, finishes nothing. Under the race detector the slot
// is dropped instead of reused, so an untagged late finish panics.
func (rt *Runtime) releaseSlot(s *opSlot) {
	s.comp.Retire()
	if raceEnabled {
		return
	}
	s.next, rt.slotFree = rt.slotFree, s
}

// Handle tracks a non-blocking operation (explicit-handle semantics). It
// is a value — the operation's slot and the slot's generation at issue —
// and may be copied freely. Wait drives the progress engine until the
// operation's local completion: for gets the data has landed, for puts and
// accumulates the local buffer is reusable. The first Wait releases the
// slot for the next operation; from then on every copy of the Handle
// reads as done. The zero Handle is done.
type Handle struct {
	s   *opSlot
	gen uint32
}

// newHandle takes a slot for one operation and returns its Handle.
func (rt *Runtime) newHandle() Handle {
	s := rt.takeSlot()
	return Handle{s: s, gen: s.comp.Gen()}
}

// live returns h's slot while it still holds h's operation, nil once the
// operation is over.
func (h Handle) live() *opSlot {
	if h.s == nil || h.s.comp.Gen() != h.gen {
		return nil
	}
	return h.s
}

// Wait blocks until the operation completes locally, then releases its
// slot (a vector operation's is kept). Waiting on a finished operation
// returns at once.
func (h Handle) Wait(th *sim.Thread) {
	s := h.live()
	if s == nil {
		return
	}
	if s.comps != nil {
		s.rt.mainCtx.WaitAllLocal(th, s.comps)
		return
	}
	s.rt.mainCtx.WaitLocal(th, &s.comp)
	if h.live() != nil { // another thread's Wait on a copy may have released it
		s.rt.releaseSlot(s)
	}
}

// Done reports whether the operation has already completed.
func (h Handle) Done() bool {
	s := h.live()
	if s == nil {
		return true
	}
	if s.comps != nil {
		for _, c := range s.comps {
			if !c.Done() {
				return false
			}
		}
		return true
	}
	return s.comp.Done()
}

// Track converts an explicit handle into an implicit one: the runtime
// keeps it, and the next WaitAll waits for it and releases its slot. The
// list keeps its capacity across WaitAlls and starts at chunkLen.
func (rt *Runtime) Track(h Handle) {
	if rt.implicit == nil {
		rt.implicit = make([]Handle, 0, chunkLen)
	}
	rt.implicit = append(rt.implicit, h)
}

// WaitAll completes every outstanding implicit-handle operation
// (ARMCI_WaitAll).
func (rt *Runtime) WaitAll(th *sim.Thread) {
	for _, h := range rt.implicit {
		h.Wait(th)
	}
	clear(rt.implicit)
	rt.implicit = rt.implicit[:0]
}

// xfer is one contiguous operation across every attempt made at it: a
// healthy run issues it once, a chaos run re-issues the same value, so a
// re-send repeats the first send's identity.
type xfer struct {
	s *opSlot // its slot: s.comp is the one completion all attempts share, finished with FinishOnce below
	// id and data are the pend id and payload the first AM attempt
	// captured (id 0: none yet), re-sent unchanged: the target dedups on
	// (initiator, id), so an accumulate is applied once however many
	// copies arrive. An end-to-end write keeps data until complete and
	// sends each attempt a copy (wire); any other sends data itself, once.
	id   int64
	data []byte
	pos  int  // the target's clique position, found once per operation
	rdma bool // the last attempt went by RDMA: its missed deadline turns the target suspect
	// e2e marks a blocking operation on a chaos run. The caller waits
	// until the bytes landed or were applied, so a timed wait detects
	// their loss and nothing is left for a fence or a conflicting read to
	// wait on: an end-to-end write books neither fence nor conflict state.
	e2e bool
}

// blockingXfer is a blocking operation's xfer to the peer at position
// pos, in a slot complete releases; a non-blocking one is xfer{s: h.s,
// pos: pos}, completed through its Handle.
func (rt *Runtime) blockingXfer(pos int) xfer {
	return xfer{s: rt.takeSlot(), pos: pos, e2e: rt.faulty()}
}

// complete drives x through attempt. An end-to-end operation then drops
// the pending request it may still have (budget exhausted, or an AM
// attempt overtaken by a later RDMA one), so a late reply finds nothing,
// and the payload it kept. The operation is over: its slot goes back.
func (rt *Runtime) complete(th *sim.Thread, op *retried, target, n int, x *xfer, issue func()) error {
	err := rt.attempt(th, op, target, n, &x.s.comp, issue, func() {
		if x.rdma {
			rt.markSuspect(x.pos)
		}
	})
	if x.e2e {
		rt.dropPend(x.id)
		rt.C.Bufs().Return(x.data)
	}
	rt.releaseSlot(x.s)
	return err
}

// wire returns the payload an AM attempt at x hands pami: x's own for a
// write sent once, a copy for an end-to-end write, which may re-send it.
func (rt *Runtime) wire(x *xfer) []byte {
	if !x.e2e {
		return x.data
	}
	b := rt.C.Bufs().Buf(len(x.data))
	copy(b, x.data)
	return b
}

// rdmaReady is §III.C.1's selection rule: RDMA when both memory regions
// are at hand — [local, local+ln) registered here, [addr, addr+rn) at the
// peer in position pos resolved through the region cache — and the peer is
// not inside a suspect window; else the active-message fallback.
func (rt *Runtime) rdmaReady(th *sim.Thread, local mem.Addr, ln, pos int, addr mem.Addr, rn int) bool {
	return !rt.rdmaSuspect(pos) && rt.localRegionFor(th, local, ln) && rt.remoteRegionFor(th, pos, addr, rn)
}

// amWrite prepares x's first AM attempt at a write of n bytes to x's peer:
// payload borrowed (wire), pend id allocated and, unless the write is end
// to end, its ack booked for the next fence. The ack finishes x when
// acked is set; a put that completes at issue leaves it unset, so the pend
// slot never holds a completion its operation no longer owns.
func (rt *Runtime) amWrite(x *xfer, local mem.Addr, n int, acked bool) {
	x.data = rt.C.Bufs().Borrow(rt.C.Space, local, n)
	var p *pendReq
	x.id, p = rt.newPend()
	if acked {
		p.comp = &x.s.comp
	}
	if !x.e2e {
		p.counted = true
		rt.peers.addWrites(x.pos, 0, 1)
	}
}

// issuePut makes one attempt at a contiguous put of n bytes from local
// memory to dst. RDMA when rdmaReady; otherwise PAMI's default
// (active-message) path, which needs the target's progress engine and
// whose remote ack feeds the fence.
func (rt *Runtime) issuePut(th *sim.Thread, x *xfer, local mem.Addr, dst GlobalPtr, n int) {
	if !x.e2e {
		rt.markWrite(x.pos, rt.allocKey(dst))
	}
	if x.rdma = rt.rdmaReady(th, local, n, x.pos, dst.Addr, n); x.rdma {
		// Under an injector RdmaPut's completion is end to end (posted at
		// delivery), so a timed wait detects a dropped data message.
		rt.mainCtx.RdmaPut(th, rt.endpoint(th, x.pos, false), local, dst.Addr, n, &x.s.comp)
		if !x.e2e {
			rt.peers.addWrites(x.pos, 1, 0)
		}
		rt.Stats[statPutRdma]++
		rt.tr("rdma", "put.rdma", int64(n))
		return
	}
	if x.id == 0 {
		// An end-to-end put completes at its ack; any other is locally
		// complete at issue, since the AM owns a copy of the buffer.
		rt.amWrite(x, local, n, x.e2e)
		if !x.e2e {
			x.s.comp.Finish()
		}
	}
	rt.mainCtx.SendAM(th, rt.endpoint(th, x.pos, true), dPutReq, []int64{x.id, int64(dst.Addr), rt.pendMark()}, rt.wire(x))
	rt.Stats[statPutAM]++
	rt.tr("am", "put.am", int64(n))
}

// NbPut starts a non-blocking contiguous put (protocol selection:
// issuePut). The handle completes when the local buffer is reusable.
func (rt *Runtime) NbPut(th *sim.Thread, local mem.Addr, dst GlobalPtr, n int) Handle {
	h := rt.newHandle()
	x := xfer{s: h.s, pos: rt.peers.record(dst.Rank)}
	rt.issuePut(th, &x, local, dst, n)
	return h
}

// Put is the blocking contiguous put: it returns when the local buffer is
// reusable (local completion), per ARMCI/MPI buffer-reuse semantics. On
// chaos runs an exhausted retry budget panics; use PutErr to handle it.
func (rt *Runtime) Put(th *sim.Thread, local mem.Addr, dst GlobalPtr, n int) {
	if err := rt.PutErr(th, local, dst, n); err != nil {
		panic(err)
	}
}

// PutErr is the error-returning blocking put. Without fault injection it
// cannot fail and behaves exactly like Put; on chaos runs it is
// end-to-end (remotely applied on return), retried under the configured
// retryPolicy, and returns *OpError when the budget is exhausted.
func (rt *Runtime) PutErr(th *sim.Thread, local mem.Addr, dst GlobalPtr, n int) error {
	t0 := th.Now()
	x := rt.blockingXfer(rt.peers.record(dst.Rank))
	if err := rt.complete(th, putOp, dst.Rank, n, &x, func() { rt.issuePut(th, &x, local, dst, n) }); err != nil {
		return err
	}
	rt.obsOp(opPut, n, th.Now()-t0)
	return nil
}

// issueGet makes one attempt at a contiguous get of n bytes from src into
// local memory: RDMA when rdmaReady, else the fallback, which is no
// longer one-sided — the target must advance its progress engine to serve
// it (the extra o of Eq. 8).
func (rt *Runtime) issueGet(th *sim.Thread, x *xfer, src GlobalPtr, local mem.Addr, n int) {
	if x.rdma = rt.rdmaReady(th, local, n, x.pos, src.Addr, n); x.rdma {
		rt.mainCtx.RdmaGet(th, rt.endpoint(th, x.pos, false), local, src.Addr, n, &x.s.comp)
		rt.Stats[statGetRdma]++
		rt.tr("rdma", "get.rdma", int64(n))
		return
	}
	if x.id == 0 {
		var p *pendReq
		x.id, p = rt.newPend()
		p.comp = &x.s.comp
		p.localAddr = local
	}
	rt.mainCtx.SendAM(th, rt.endpoint(th, x.pos, true), dGetReq, []int64{x.id, int64(src.Addr), int64(n)}, nil)
	rt.Stats[statGetFallback]++
	rt.tr("am", "get.fallback", int64(n))
}

// NbGet starts a non-blocking contiguous get of n bytes from src into
// local memory. A conflicting outstanding write to the same distributed
// structure fences first (location consistency).
func (rt *Runtime) NbGet(th *sim.Thread, src GlobalPtr, local mem.Addr, n int) Handle {
	pos := rt.admitRead(th, src.Rank, rt.allocKey(src))
	h := rt.newHandle()
	x := xfer{s: h.s, pos: pos}
	rt.issueGet(th, &x, src, local, n)
	return h
}

// Get is the blocking contiguous get. On chaos runs an exhausted retry
// budget panics; use GetErr to handle it.
func (rt *Runtime) Get(th *sim.Thread, src GlobalPtr, local mem.Addr, n int) {
	if err := rt.GetErr(th, src, local, n); err != nil {
		panic(err)
	}
}

// GetErr is the error-returning blocking get (see PutErr).
func (rt *Runtime) GetErr(th *sim.Thread, src GlobalPtr, local mem.Addr, n int) error {
	t0 := th.Now()
	x := rt.blockingXfer(rt.admitRead(th, src.Rank, rt.allocKey(src)))
	if err := rt.complete(th, getOp, src.Rank, n, &x, func() { rt.issueGet(th, &x, src, local, n) }); err != nil {
		return err
	}
	rt.obsOp(opGet, n, th.Now()-t0)
	return nil
}

// issueAcc makes one attempt at an accumulate: dst[i] += scale * local[i]
// over n bytes of float64s. Accumulate is always an active-message
// protocol on BG/Q (no hardware support), so it relies on target-side
// progress; x completes when the target acknowledges application.
func (rt *Runtime) issueAcc(th *sim.Thread, x *xfer, local mem.Addr, dst GlobalPtr, n int, scale float64) {
	if x.id == 0 {
		if !x.e2e {
			rt.markWrite(x.pos, rt.allocKey(dst))
		}
		rt.amWrite(x, local, n, true)
	}
	rt.mainCtx.SendAM(th, rt.endpoint(th, x.pos, true), dAccReq,
		[]int64{x.id, int64(dst.Addr), int64(math.Float64bits(scale)), rt.pendMark()}, rt.wire(x))
	rt.Stats[statAcc]++
	rt.tr("am", "acc", int64(n))
}

// NbAcc starts a non-blocking accumulate (issueAcc). The returned handle
// completes when the target acknowledges application.
func (rt *Runtime) NbAcc(th *sim.Thread, local mem.Addr, dst GlobalPtr, n int, scale float64) Handle {
	if n%mem.Float64Size != 0 {
		panic("armci: accumulate length must be a multiple of 8")
	}
	h := rt.newHandle()
	x := xfer{s: h.s, pos: rt.peers.record(dst.Rank)}
	rt.issueAcc(th, &x, local, dst, n, scale)
	return h
}

// Acc is the blocking accumulate. On chaos runs an exhausted retry
// budget panics; use AccErr to handle it.
func (rt *Runtime) Acc(th *sim.Thread, local mem.Addr, dst GlobalPtr, n int, scale float64) {
	if err := rt.AccErr(th, local, dst, n, scale); err != nil {
		panic(err)
	}
}

// AccErr is the error-returning blocking accumulate (see PutErr). On
// chaos runs the accumulate is applied exactly once even when the
// request is duplicated or retried.
func (rt *Runtime) AccErr(th *sim.Thread, local mem.Addr, dst GlobalPtr, n int, scale float64) error {
	if n%mem.Float64Size != 0 {
		return fmt.Errorf("armci: accumulate length %d not a multiple of 8", n)
	}
	t0 := th.Now()
	x := rt.blockingXfer(rt.peers.record(dst.Rank))
	if err := rt.complete(th, accOp, dst.Rank, n, &x, func() { rt.issueAcc(th, &x, local, dst, n, scale) }); err != nil {
		return err
	}
	rt.obsOp(opAcc, n, th.Now()-t0)
	return nil
}
