package armci

import (
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Handle tracks a non-blocking operation (explicit-handle semantics).
// Wait drives the progress engine until the operation's local completion:
// for gets the data has landed, for puts and accumulates the local buffer
// is reusable.
type Handle struct {
	rt    *Runtime
	comps []*sim.Completion
}

// Wait blocks until the operation completes locally.
func (h *Handle) Wait(th *sim.Thread) {
	h.rt.mainCtx.WaitAllLocal(th, h.comps)
}

// Done reports whether the operation has already completed.
func (h *Handle) Done() bool {
	for _, c := range h.comps {
		if !c.Done() {
			return false
		}
	}
	return true
}

// track registers a completion on an implicit-handle operation so WaitAll
// can find it.
func (rt *Runtime) track(c *sim.Completion) {
	rt.implicit = append(rt.implicit, c)
}

// Track converts an explicit handle into an implicit one: its completions
// are adopted by the runtime and retired by the next WaitAll.
func (rt *Runtime) Track(h *Handle) {
	rt.implicit = append(rt.implicit, h.comps...)
}

// WaitAll completes every outstanding implicit-handle operation
// (ARMCI_WaitAll).
func (rt *Runtime) WaitAll(th *sim.Thread) {
	for _, c := range rt.implicit {
		rt.mainCtx.WaitLocal(th, c)
	}
	rt.implicit = rt.implicit[:0]
}

// finishedCompletion returns an already-finished completion, used where
// an operation is locally complete at issue time (AM sends capture the
// buffer immediately).
func (rt *Runtime) finishedCompletion() *sim.Completion {
	c := sim.NewCompletion(rt.W.K)
	c.Finish()
	return c
}

// NbPut starts a non-blocking contiguous put of n bytes from local memory
// to dst. RDMA when both sides are registered; otherwise PAMI's default
// (active-message) RMA path, which needs the target's progress engine.
func (rt *Runtime) NbPut(th *sim.Thread, local mem.Addr, dst GlobalPtr, n int) *Handle {
	rt.cons.noteWrite(dst.Rank, rt.allocKey(dst))
	if rt.localRegionFor(th, local, n) && rt.remoteRegionFor(th, dst.Rank, dst.Addr, n) {
		comp := sim.NewCompletion(rt.W.K)
		rt.mainCtx.RdmaPut(th, rt.epData(th, dst.Rank), local, dst.Addr, n, comp)
		rt.noteWrites(dst.Rank, 1, 0)
		rt.Stats.Inc("put.rdma", 1)
		rt.tr("rdma", "put.rdma", int64(n))
		return &Handle{rt: rt, comps: []*sim.Completion{comp}}
	}
	// Fallback: AM carrying the payload; remote ack feeds the fence.
	data := rt.C.Space.Clone(local, n)
	id, p := rt.newPend()
	p.counted = true
	rt.noteWrites(dst.Rank, 0, 1)
	rt.mainCtx.SendAM(th, rt.epSvc(th, dst.Rank), dPutReq,
		[]int64{id, int64(dst.Addr)}, data)
	rt.Stats.Inc("put.am", 1)
	rt.tr("am", "put.am", int64(n))
	return &Handle{rt: rt, comps: []*sim.Completion{rt.finishedCompletion()}}
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
// RetryPolicy, and returns *OpError when the budget is exhausted.
func (rt *Runtime) PutErr(th *sim.Thread, local mem.Addr, dst GlobalPtr, n int) error {
	t0 := th.Now()
	if rt.faulty() {
		if err := rt.putFT(th, local, dst, n); err != nil {
			return err
		}
	} else {
		rt.NbPut(th, local, dst, n).Wait(th)
	}
	rt.obsOp(opPut, n, th.Now()-t0)
	return nil
}

// NbGet starts a non-blocking contiguous get of n bytes from src into
// local memory. A conflicting outstanding write to the same distributed
// structure fences first (location consistency).
func (rt *Runtime) NbGet(th *sim.Thread, src GlobalPtr, local mem.Addr, n int) *Handle {
	key := rt.allocKey(src)
	rt.cons.checkRead(th, src.Rank, key)
	rt.cons.noteRead(src.Rank, key)
	comp := sim.NewCompletion(rt.W.K)
	if rt.localRegionFor(th, local, n) && rt.remoteRegionFor(th, src.Rank, src.Addr, n) {
		rt.mainCtx.RdmaGet(th, rt.epData(th, src.Rank), local, src.Addr, n, comp)
		rt.Stats.Inc("get.rdma", 1)
		rt.tr("rdma", "get.rdma", int64(n))
		return &Handle{rt: rt, comps: []*sim.Completion{comp}}
	}
	// Fallback: the get is no longer one-sided — the target must advance
	// its progress engine to serve it (the extra o of Eq. 8).
	id, p := rt.newPend()
	p.comp = comp
	p.localAddr = local
	rt.mainCtx.SendAM(th, rt.epSvc(th, src.Rank), dGetReq,
		[]int64{id, int64(src.Addr), int64(n)}, nil)
	rt.Stats.Inc("get.fallback", 1)
	rt.tr("am", "get.fallback", int64(n))
	return &Handle{rt: rt, comps: []*sim.Completion{comp}}
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
	if rt.faulty() {
		if err := rt.getFT(th, src, local, n); err != nil {
			return err
		}
	} else {
		rt.NbGet(th, src, local, n).Wait(th)
	}
	rt.obsOp(opGet, n, th.Now()-t0)
	return nil
}

// NbAcc starts a non-blocking accumulate: dst[i] += scale * local[i] over
// n bytes of float64s. Accumulate is always an active-message protocol on
// BG/Q (no hardware support), so it too relies on target-side progress.
// The returned handle completes when the target acknowledges application.
func (rt *Runtime) NbAcc(th *sim.Thread, local mem.Addr, dst GlobalPtr, n int, scale float64) *Handle {
	if n%mem.Float64Size != 0 {
		panic("armci: accumulate length must be a multiple of 8")
	}
	rt.cons.noteWrite(dst.Rank, rt.allocKey(dst))
	data := rt.C.Space.Clone(local, n)
	id, p := rt.newPend()
	comp := sim.NewCompletion(rt.W.K)
	p.comp = comp
	p.counted = true
	rt.noteWrites(dst.Rank, 0, 1)
	rt.mainCtx.SendAM(th, rt.epSvc(th, dst.Rank), dAccReq,
		[]int64{id, int64(dst.Addr), int64(math.Float64bits(scale))}, data)
	rt.Stats.Inc("acc", 1)
	rt.tr("am", "acc", int64(n))
	return &Handle{rt: rt, comps: []*sim.Completion{comp}}
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
	if rt.faulty() {
		if err := rt.accFT(th, local, dst, n, scale); err != nil {
			return err
		}
	} else {
		rt.NbAcc(th, local, dst, n, scale).Wait(th)
	}
	rt.obsOp(opAcc, n, th.Now()-t0)
	return nil
}
