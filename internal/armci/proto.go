package armci

import (
	"math"

	"repro/internal/mem"
	"repro/internal/pami"
	"repro/internal/sim"
)

// ARMCI dispatch ids on top of PAMI's reserved space.
const (
	dRegionQ   = pami.DispatchUserBase + iota // region metadata query
	dRegionR                                  // region metadata reply
	dGetReq                                   // fallback contiguous get
	dGetRep                                   // fallback get data reply
	dPutReq                                   // fallback contiguous put
	dAck                                      // write acknowledgement
	dAccReq                                   // contiguous accumulate
	dPutSReq                                  // typed (packed) strided put
	dGetSReq                                  // typed strided get request
	dGetSRep                                  // typed strided get reply
	dAccSReq                                  // strided accumulate
	dLockReq                                  // mutex lock request
	dLockRep                                  // mutex grant
	dUnlockReq                                // mutex unlock

	nProtocol = dUnlockReq + 1 - dRegionQ // the dispatch ids, one protocol entry each
)

// pendReq is the initiator-side state of an in-flight AM protocol. Like
// operation slots, pending requests are cut from per-runtime chunks and
// retired to a free list linked through next.
type pendReq struct {
	id   int64    // its key in Runtime.pend
	next *pendReq // the free list's next request, while this one is on it
	// comp is the completion the reply or ack finishes, when the
	// operation is still waiting for one; nil when it completed at issue.
	comp      *sim.Completion
	localAddr mem.Addr
	// counted marks requests that incremented the fence accounting
	// (unackedAMs) at issue; only those decrement it on ack. Fault-mode
	// end-to-end operations leave it false.
	counted bool
	// layout is a typed strided get's local side, which its reply is
	// unpacked into.
	layout patchLayout
	// region query result
	done  bool
	found bool
	base  mem.Addr
	size  int
}

// amSeen dedups at-least-once write AMs by (initiator rank, request id)
// and the initiator's low-water mark (0: a strided write carries none).
// Only armed on chaos runs — without fault injection every request
// arrives exactly once and nothing is recorded.
func (rt *Runtime) amSeen(src int, id, mark int64) bool {
	if !rt.faulty() {
		return false
	}
	if _, seen := rt.applied.Seen(src, id, mark); seen {
		rt.Stats[statDupAM]++
		return true
	}
	rt.applied.Record(src, id, 0)
	return false
}

// protocol is the ARMCI protocol: every dispatch id and the Runtime
// methods that serve it — one method for a handler that does all its work
// at dispatch, two for one that charges the CPU in between (a copy, an
// accumulate) — shared by every context of every rank (requests arrive on
// the service context, replies on the issuing context; registering
// everywhere keeps addressing simple). A handler finds the runtime it
// serves through the context it was dispatched on (pami.Client.Cookie), so
// nothing is bound per rank or per world.
var protocol = [nProtocol]struct {
	id int
	h  pami.AMHandler
}{
	{dRegionQ, serve((*Runtime).handleRegionQ, nil)},
	{dRegionR, serve((*Runtime).handleRegionR, nil)},
	{dGetReq, serve((*Runtime).handleGetReq, nil)},
	{dGetRep, serve((*Runtime).handleGetRep, nil)},
	{dPutReq, serve((*Runtime).dispatchPutReq, (*Runtime).completePutReq)},
	{dAck, serve((*Runtime).handleAck, nil)},
	{dAccReq, serve((*Runtime).dispatchAccReq, (*Runtime).completeAccReq)},
	{dPutSReq, serve((*Runtime).dispatchPutSReq, (*Runtime).completePutSReq)},
	{dGetSReq, serve((*Runtime).dispatchGetSReq, (*Runtime).completeGetSReq)},
	{dGetSRep, serve((*Runtime).dispatchGetSRep, (*Runtime).completeGetSRep)},
	{dAccSReq, serve((*Runtime).dispatchAccSReq, (*Runtime).completeAccSReq)},
	{dLockReq, serve((*Runtime).handleLockReq, nil)},
	{dLockRep, serve((*Runtime).handleLockRep, nil)},
	{dUnlockReq, serve((*Runtime).handleUnlockReq, nil)},
}

// serve makes a protocol entry's methods a pami.AMHandler, once per
// process. dispatch returns the CPU the handler charges before complete
// runs, and whether it does; a handler without complete does all its
// work in dispatch.
func serve(dispatch func(*Runtime, *sim.Thread, *pami.Context, *pami.AMessage) (sim.Time, bool),
	complete func(*Runtime, *sim.Thread, *pami.Context, *pami.AMessage)) pami.AMHandler {
	h := pami.AMHandler{Dispatch: func(th *sim.Thread, x *pami.Context, msg *pami.AMessage) (sim.Time, bool) {
		return dispatch(x.Client.Cookie.(*Runtime), th, x, msg)
	}}
	if complete != nil {
		h.Complete = func(th *sim.Thread, x *pami.Context, msg *pami.AMessage) {
			complete(x.Client.Cookie.(*Runtime), th, x, msg)
		}
	}
	return h
}

// copyCost is the CPU time a memory copy of n bytes costs the servicing
// thread.
func (rt *Runtime) copyCost(n int) sim.Time {
	return sim.Time(rt.W.Cfg.Params.PackByteCost * float64(n))
}

// --- region metadata protocol (§III.B cache-miss path) ---

func (rt *Runtime) handleRegionQ(_ *sim.Thread, x *pami.Context, msg *pami.AMessage) (sim.Time, bool) {
	id, addr, n := msg.Hdr[0], mem.Addr(msg.Hdr[1]), int(msg.Hdr[2])
	found, base, size := int64(0), int64(0), int64(0)
	if r := rt.C.FindRegion(addr, n); r != nil {
		found, base, size = 1, int64(r.Base), int64(r.Size)
	}
	x.Reply(msg.Src, dRegionR, []int64{id, found, base, size}, nil)
	return 0, false
}

func (rt *Runtime) handleRegionR(_ *sim.Thread, _ *pami.Context, msg *pami.AMessage) (sim.Time, bool) {
	p := rt.findPend(msg.Hdr[0])
	if p == nil {
		return 0, false // duplicate or abandoned query (fault mode only)
	}
	p.found = msg.Hdr[1] != 0
	p.base = mem.Addr(msg.Hdr[2])
	p.size = int(msg.Hdr[3])
	p.done = true
	return 0, false
}

// --- fallback contiguous get/put (§III.C.1) ---

func (rt *Runtime) handleGetReq(_ *sim.Thread, x *pami.Context, msg *pami.AMessage) (sim.Time, bool) {
	id, addr, n := msg.Hdr[0], mem.Addr(msg.Hdr[1]), int(msg.Hdr[2])
	// Zero-copy reply: the data streams straight from the ARMCI heap, so
	// the remote overhead is the constant o of Eq. 8 (handler dispatch +
	// reply injection), not a per-byte copy.
	data := rt.C.Bufs().Borrow(rt.C.Space, addr, n)
	x.Reply(msg.Src, dGetRep, []int64{id}, data)
	return 0, false
}

func (rt *Runtime) handleGetRep(_ *sim.Thread, _ *pami.Context, msg *pami.AMessage) (sim.Time, bool) {
	p, ok := rt.dropPend(msg.Hdr[0])
	if !ok {
		return 0, false // duplicate reply to a retried get (fault mode only)
	}
	rt.C.Space.CopyIn(p.localAddr, msg.Data)
	p.comp.FinishOnce()
	return 0, false
}

func (rt *Runtime) dispatchPutReq(_ *sim.Thread, x *pami.Context, msg *pami.AMessage) (sim.Time, bool) {
	if rt.amSeen(msg.Src.Rank, msg.Hdr[0], msg.Hdr[2]) {
		// Always ack, even a duplicate: the initiator's first ack may be
		// the message that was lost.
		x.Reply(msg.Src, dAck, msg.Hdr[:1], nil)
		return 0, false
	}
	return rt.copyCost(len(msg.Data)), true
}

func (rt *Runtime) completePutReq(_ *sim.Thread, x *pami.Context, msg *pami.AMessage) {
	rt.C.Space.CopyIn(mem.Addr(msg.Hdr[1]), msg.Data)
	x.Reply(msg.Src, dAck, msg.Hdr[:1], nil)
}

// handleAck retires a remote write acknowledgement: it releases the fence
// accounting toward the acking rank and completes the pending handle if
// the protocol exposed one.
func (rt *Runtime) handleAck(_ *sim.Thread, _ *pami.Context, msg *pami.AMessage) (sim.Time, bool) {
	p, ok := rt.dropPend(msg.Hdr[0])
	if !ok {
		return 0, false // duplicate ack (fault mode only)
	}
	if p.comp != nil {
		p.comp.FinishOnce()
	}
	if p.counted {
		rt.peers.addWrites(rt.peers.record(msg.Src.Rank), 0, -1)
	}
	return 0, false
}

// --- accumulate (§III.D: no hardware support, target CPU applies) ---

func (rt *Runtime) dispatchAccReq(_ *sim.Thread, x *pami.Context, msg *pami.AMessage) (sim.Time, bool) {
	if rt.amSeen(msg.Src.Rank, msg.Hdr[0], msg.Hdr[3]) {
		// Accumulate is not idempotent: a duplicated delivery must be
		// absorbed here, not re-applied.
		x.Reply(msg.Src, dAck, msg.Hdr[:1], nil)
		return 0, false
	}
	return rt.accCost(len(msg.Data)), true
}

func (rt *Runtime) completeAccReq(_ *sim.Thread, x *pami.Context, msg *pami.AMessage) {
	addr, n := mem.Addr(msg.Hdr[1]), len(msg.Data)
	scale := math.Float64frombits(uint64(msg.Hdr[2]))
	mem.AddFloat64s(rt.C.Space.Bytes(addr, n), msg.Data, scale)
	x.Reply(msg.Src, dAck, msg.Hdr[:1], nil)
}

// accCost is the CPU time applying an accumulate of n bytes costs the
// servicing thread.
func (rt *Runtime) accCost(n int) sim.Time {
	return sim.Time(rt.W.Cfg.Params.AccByteCost * float64(n))
}
