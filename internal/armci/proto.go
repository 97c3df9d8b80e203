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

// amSeen dedups at-least-once write AMs by (initiator rank, request id).
// Only armed on chaos runs — without fault injection every request
// arrives exactly once and the map is never allocated.
func (rt *Runtime) amSeen(src int, id int64) bool {
	if !rt.faulty() {
		return false
	}
	key := amKey{src: src, id: id}
	if rt.applied[key] {
		rt.Stats[statDupAM]++
		return true
	}
	if rt.applied == nil {
		rt.applied = make(map[amKey]bool)
	}
	rt.applied[key] = true
	return false
}

// protocol is the ARMCI protocol: every dispatch id and the Runtime method
// that serves it.
var protocol = [nProtocol]struct {
	id int
	h  func(*Runtime, *sim.Thread, *pami.Context, *pami.AMessage)
}{
	{dRegionQ, (*Runtime).handleRegionQ},
	{dRegionR, (*Runtime).handleRegionR},
	{dGetReq, (*Runtime).handleGetReq},
	{dGetRep, (*Runtime).handleGetRep},
	{dPutReq, (*Runtime).handlePutReq},
	{dAck, (*Runtime).handleAck},
	{dAccReq, (*Runtime).handleAccReq},
	{dPutSReq, (*Runtime).handlePutSReq},
	{dGetSReq, (*Runtime).handleGetSReq},
	{dGetSRep, (*Runtime).handleGetSRep},
	{dAccSReq, (*Runtime).handleAccSReq},
	{dLockReq, (*Runtime).handleLockReq},
	{dLockRep, (*Runtime).handleLockRep},
	{dUnlockReq, (*Runtime).handleUnlockReq},
}

// bindHandlers builds the world's handler table: one PAMI handler per
// protocol entry, shared by every context of every rank (requests arrive
// on the service context, replies on the issuing context; registering
// everywhere keeps addressing simple). A handler finds the runtime it
// serves through the context it was dispatched on — the context's client
// rank is PAMI's dispatch cookie — so nothing is bound per rank.
func (w *World) bindHandlers() {
	for i, e := range protocol {
		h := e.h
		w.handlers[i] = func(th *sim.Thread, x *pami.Context, msg *pami.AMessage) {
			h(&w.Runtimes[x.Client.Rank], th, x, msg)
		}
	}
}

// copyCost charges the servicing thread for a memory copy of n bytes.
func (rt *Runtime) copyCost(th *sim.Thread, n int) {
	t := sim.Time(rt.W.Cfg.Params.PackByteCost * float64(n))
	if t > 0 {
		th.Sleep(t)
	}
}

// --- region metadata protocol (§III.B cache-miss path) ---

func (rt *Runtime) handleRegionQ(th *sim.Thread, x *pami.Context, msg *pami.AMessage) {
	id, addr, n := msg.Hdr[0], mem.Addr(msg.Hdr[1]), int(msg.Hdr[2])
	found, base, size := int64(0), int64(0), int64(0)
	if r := rt.C.FindRegion(addr, n); r != nil {
		found, base, size = 1, int64(r.Base), int64(r.Size)
	}
	x.SendAM(th, msg.Src, dRegionR, []int64{id, found, base, size}, nil)
}

func (rt *Runtime) handleRegionR(th *sim.Thread, _ *pami.Context, msg *pami.AMessage) {
	p := rt.findPend(msg.Hdr[0])
	if p == nil {
		return // duplicate or abandoned query (fault mode only)
	}
	p.found = msg.Hdr[1] != 0
	p.base = mem.Addr(msg.Hdr[2])
	p.size = int(msg.Hdr[3])
	p.done = true
}

// --- fallback contiguous get/put (§III.C.1) ---

func (rt *Runtime) handleGetReq(th *sim.Thread, x *pami.Context, msg *pami.AMessage) {
	id, addr, n := msg.Hdr[0], mem.Addr(msg.Hdr[1]), int(msg.Hdr[2])
	// Zero-copy reply: the data streams straight from the ARMCI heap, so
	// the remote overhead is the constant o of Eq. 8 (handler dispatch +
	// reply injection), not a per-byte copy.
	data := rt.C.Bufs().Borrow(rt.C.Space, addr, n)
	x.SendAM(th, msg.Src, dGetRep, []int64{id}, data)
}

func (rt *Runtime) handleGetRep(th *sim.Thread, _ *pami.Context, msg *pami.AMessage) {
	p, ok := rt.dropPend(msg.Hdr[0])
	if !ok {
		return // duplicate reply to a retried get (fault mode only)
	}
	rt.C.Space.CopyIn(p.localAddr, msg.Data)
	p.comp.FinishOnce()
}

func (rt *Runtime) handlePutReq(th *sim.Thread, x *pami.Context, msg *pami.AMessage) {
	id, addr := msg.Hdr[0], mem.Addr(msg.Hdr[1])
	if !rt.amSeen(msg.Src.Rank, id) {
		rt.copyCost(th, len(msg.Data))
		rt.C.Space.CopyIn(addr, msg.Data)
	}
	// Always ack, even a duplicate: the initiator's first ack may be the
	// message that was lost.
	x.SendAM(th, msg.Src, dAck, []int64{id}, nil)
}

// handleAck retires a remote write acknowledgement: it releases the fence
// accounting toward the acking rank and completes the pending handle if
// the protocol exposed one.
func (rt *Runtime) handleAck(_ *sim.Thread, _ *pami.Context, msg *pami.AMessage) {
	p, ok := rt.dropPend(msg.Hdr[0])
	if !ok {
		return // duplicate ack (fault mode only)
	}
	if p.comp != nil {
		p.comp.FinishOnce()
	}
	if p.counted {
		rt.peers.addWrites(rt.peers.record(msg.Src.Rank), 0, -1)
	}
}

// --- accumulate (§III.D: no hardware support, target CPU applies) ---

func (rt *Runtime) handleAccReq(th *sim.Thread, x *pami.Context, msg *pami.AMessage) {
	id, addr := msg.Hdr[0], mem.Addr(msg.Hdr[1])
	scale := math.Float64frombits(uint64(msg.Hdr[2]))
	n := len(msg.Data)
	if !rt.amSeen(msg.Src.Rank, id) {
		// Accumulate is not idempotent: a duplicated delivery must be
		// absorbed here, not re-applied.
		t := sim.Time(rt.W.Cfg.Params.AccByteCost * float64(n))
		if t > 0 {
			th.Sleep(t)
		}
		mem.AddFloat64s(rt.C.Space.Bytes(addr, n), msg.Data, scale)
	}
	x.SendAM(th, msg.Src, dAck, []int64{id}, nil)
}
