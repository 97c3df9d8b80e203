package pami

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/network"
	"repro/internal/sim"
)

// amHeaderBytes is the wire overhead of an active message envelope.
const amHeaderBytes = 32

// Reserved dispatch ids; user protocols start at DispatchUserBase.
const (
	dispatchRmwReq = 0
	dispatchRmwRep = 1

	// DispatchUserBase is the first dispatch id available to layers above
	// PAMI (ARMCI claims several).
	DispatchUserBase = 16

	// DispatchLimit bounds dispatch ids: a context's handler table is a
	// fixed array of this many slots, half reserved, half for users.
	DispatchLimit = 2 * DispatchUserBase
)

// AMessage is a delivered active message. Hdr carries small scalars
// (request ids, addresses, sizes); Data carries the payload bytes.
type AMessage struct {
	Src      Endpoint // reply address: the sender's (rank, context)
	Dispatch int
	Hdr      []int64
	Data     []byte
}

// AMHandler processes an active message. It runs on whichever thread
// advances the target context, with the context lock held — replies sent
// from the handler therefore occupy the progress engine, exactly as on
// the real machine. A handler must not keep msg, msg.Hdr or msg.Data
// after it returns: once its last copy has been handled, the message and
// its payload are reused for the next send (copy what must outlive the
// call).
type AMHandler func(th *sim.Thread, x *Context, msg *AMessage)

// amHdrInline is the header length an active message carries without a
// second allocation: every fixed protocol header in the tree fits, and so
// does a typed strided one of two levels — a 2-D patch, 4 + 2 + 1 words —
// while deeper descriptors take a private slice. At 7 words the flight is
// 224 bytes, still one size class (TestAMFlightSizeClass).
const amHdrInline = 7

// amFlight is one active message from SendAM to its handler's return: a
// single heap value in four roles. It is the network's record of the
// message (the embedded Msg, logged at the window boundary), the arrival
// event in the target's lane (Fire), the work item in the target
// context's queue (serve), and the message the handler reads (msg). A
// delivery duplicated under faults fires the same flight twice; the
// target's lane takes it back (hold), payload and all, once its last copy
// has been served.
type amFlight struct {
	network.Msg
	msg AMessage
	tgt *Context
	hdr [amHdrInline]int64
}

// Fire is the arrival: the message joins the target context's queue, to
// be dispatched by whichever thread advances it next.
func (f *amFlight) Fire() {
	f.tgt.post(workItem{cost: f.tgt.Client.M.P.AMHandlerCost, am: true, w: f})
}

// serve dispatches the message to its handler.
func (f *amFlight) serve(th *sim.Thread, _ uint32) {
	x := f.tgt
	var h AMHandler
	if id := f.msg.Dispatch; id >= 0 && id < DispatchLimit {
		h = x.dispatch[id]
	}
	if h == nil {
		panic(fmt.Sprintf("pami: rank %d ctx %d: no handler for dispatch %d",
			x.Client.Rank, x.Index, f.msg.Dispatch))
	}
	x.AMsServed++
	h(th, x, &f.msg)
	if f.Release() {
		// Every copy handled: nothing reads the flight or its payload any
		// more (AMHandler).
		h := x.Client.hold()
		h.bufs.Return(f.msg.Data)
		*f = amFlight{}
		h.am.Put(f)
	}
}

// SendAM sends an active message to dst, to be dispatched on dst's
// context by whichever thread advances it. hdr is copied and may be
// reused at once; the data slice is captured by the network, and callers
// may not touch it afterwards: once the handler has run, pami hands it
// back to the target lane's classes for reuse, so it should come from the
// sender's Bufs (any other buffer the caller owns outright is safe too,
// never a view into a Space). Local completion is immediate in the ARMCI
// sense (the buffer is owned by the runtime once captured), so no
// completion object is involved.
func (x *Context) SendAM(th *sim.Thread, dst Endpoint, dispatch int, hdr []int64, data []byte) {
	c := x.Client
	th.Sleep(c.jit(c.M.P.CPUInject))

	f := c.hold().am.Get()
	*f = amFlight{
		Msg: network.Msg{Src: c.Node, Dst: dst.Node, Payload: len(data) + amHeaderBytes, Kind: network.Control},
		msg: AMessage{
			Src:      Endpoint{Rank: c.Rank, Ctx: x.Index, Node: c.Node},
			Dispatch: dispatch,
			Data:     data,
		},
		tgt: &c.peer(dst.Rank).Contexts[dst.Ctx],
	}
	if len(data) > 0 {
		f.Kind = network.Data
	}
	if len(hdr) > amHdrInline {
		f.msg.Hdr = append([]int64(nil), hdr...)
	} else if len(hdr) > 0 {
		f.msg.Hdr = f.hdr[:copy(f.hdr[:], hdr)]
	}
	f.Deliver = f
	c.M.Net.SendMsg(&f.Msg)
}

// RmwOp selects the read-modify-write operation.
type RmwOp int

const (
	// FetchAdd atomically adds the operand and returns the prior value —
	// the load-balance-counter primitive.
	FetchAdd RmwOp = iota
	// Swap atomically replaces the value, returning the prior one.
	Swap
	// CompareSwap replaces the value with the operand only if the current
	// value equals compare; returns the prior value either way.
	CompareSwap
)

// rmwPending is the initiator-side state of one read-modify-write, from
// RmwBegin to RmwEnd. It owns what the caller waits on and reads — the
// completion the reply finishes and the prior value the reply carries — and
// a client recycles its slots, so a blocking rmw allocates neither. A
// client has at most one per blocked thread, so the table is a slice
// searched linearly; its first slot is a Client field.
type rmwPending struct {
	id     uint64
	result int64
	comp   sim.Completion
}

// Rmw performs an atomic read-modify-write on an int64 in dst's memory
// and returns the prior value, blocking th until the reply retires on this
// context. BG/Q's network offers no generic atomics, so this is an
// active-message protocol: it only completes once some thread at the
// target advances the addressed context — the hardware limitation that
// motivates the paper's asynchronous progress thread.
func (x *Context) Rmw(th *sim.Thread, dst Endpoint, addr mem.Addr, op RmwOp, operand, compare int64) int64 {
	id, comp := x.RmwBegin()
	x.RmwIssue(th, dst, id, addr, op, operand, compare)
	x.WaitLocal(th, comp)
	return x.RmwEnd(id)
}

// RmwBegin allocates a request id and the initiator-side state for one
// logical read-modify-write, and returns the id and the completion its
// reply finishes. Rmw is Begin + Issue + wait + End so that a timed-out
// request can be re-Issued under the same id: the target dedups on
// (initiator, id), which is what makes the retry of a non-idempotent
// operation safe.
func (x *Context) RmwBegin() (uint64, *sim.Completion) {
	c := x.Client
	var p *rmwPending
	if n := len(c.rmwFree); n > 0 {
		p = c.rmwFree[n-1]
		c.rmwFree = c.rmwFree[:n-1]
	} else {
		p = new(rmwPending)
	}
	p.id, p.result = c.rmwSeq, 0
	p.comp.Reuse(c.M.K)
	c.rmwSeq++
	c.rmwPend = append(c.rmwPend, p)
	return p.id, &p.comp
}

// RmwIssue sends (or, on retry, re-sends) the request for an id obtained
// from RmwBegin, with the client's low-water mark for the target's Dedup.
// With Params.HardwareAMO the NIC answers instead of a reply message, and
// the flight carries the pending slot.
func (x *Context) RmwIssue(th *sim.Thread, dst Endpoint, id uint64, addr mem.Addr, op RmwOp, operand, compare int64) {
	c := x.Client
	if c.M.P.HardwareAMO {
		x.rmwHardware(th, dst, addr, op, operand, compare, c.rmwPend[c.rmwFind(id)])
		return
	}
	x.SendAM(th, dst, dispatchRmwReq,
		[]int64{int64(id), int64(addr), int64(op), operand, compare, int64(c.rmwMark())}, nil)
}

// rmwMark is the lowest rmw id the client still waits on: the next id
// when none is pending.
func (c *Client) rmwMark() uint64 {
	low := c.rmwSeq
	for _, p := range c.rmwPend {
		low = min(low, p.id)
	}
	return low
}

// RmwEnd retires id — answered, or abandoned when its retry budget is
// exhausted — and returns the prior value its reply carried (zero if none
// came). The slot, completion included, is recycled: a reply arriving
// later finds nothing to complete, and the completion RmwBegin returned
// must not be used again.
func (x *Context) RmwEnd(id uint64) int64 {
	c := x.Client
	i := c.rmwFind(id)
	if i < 0 {
		panic(fmt.Sprintf("pami: rank %d: RmwEnd of rmw %d, which is not pending", c.Rank, id))
	}
	p := c.rmwPend[i]
	last := len(c.rmwPend) - 1
	c.rmwPend[i] = c.rmwPend[last]
	c.rmwPend[last] = nil
	c.rmwPend = c.rmwPend[:last]
	c.rmwFree = append(c.rmwFree, p)
	return p.result
}

// rmwFind returns the index of request id in the pending table, or -1
// when it is not pending (retired, or never begun).
func (c *Client) rmwFind(id uint64) int {
	for i, p := range c.rmwPend {
		if p.id == id {
			return i
		}
	}
	return -1
}

// rmwHardware is the what-if path (Params.HardwareAMO): the target NIC
// executes the operation at request arrival, exactly like an RDMA-get
// turnaround — no target CPU, no progress engine, no starvation. This is
// the Cray Gemini behaviour the paper contrasts against (§IV.B.3).
func (x *Context) rmwHardware(th *sim.Thread, dst Endpoint, addr mem.Addr, op RmwOp, operand, compare int64, pend *rmwPending) {
	c := x.Client
	p := c.M.P
	th.Sleep(c.jit(p.CPUInject))
	tgt := c.peer(dst.Rank)
	net := c.M.Net
	net.Send(c.Node, dst.Node, rmaControlBytes, network.Control, func() {
		// NIC-side execute after the MU turnaround; atomicity comes from
		// the event serialization at the target NIC (the target's lane).
		tgt.Ln.At(p.MUTurnaround+p.RmwCost, func() {
			old := applyRmw(tgt.Space, addr, op, operand, compare)
			net.SendNIC(dst.Node, c.Node, rmaControlBytes, func() {
				pend.result = old
				x.postCompletion(&pend.comp)
			})
		})
	})
}

// applyRmw performs op on the int64 at addr and returns the prior value:
// the one read-modify-write both the target's handler and the what-if
// NIC execute.
func applyRmw(s *mem.Space, addr mem.Addr, op RmwOp, operand, compare int64) int64 {
	old := s.GetInt64(addr)
	switch op {
	case FetchAdd:
		s.SetInt64(addr, old+operand)
	case Swap:
		s.SetInt64(addr, operand)
	case CompareSwap:
		if old == compare {
			s.SetInt64(addr, operand)
		}
	default:
		panic(fmt.Sprintf("pami: unknown rmw op %d", op))
	}
	return old
}

// installBuiltinDispatch wires the PAMI-internal protocols on a new
// context.
func (x *Context) installBuiltinDispatch() {
	x.SetDispatch(dispatchRmwReq, handleRmwReq)
	x.SetDispatch(dispatchRmwRep, handleRmwRep)
}

func handleRmwReq(th *sim.Thread, x *Context, msg *AMessage) {
	c := x.Client
	th.Sleep(c.jit(c.M.P.RmwCost))
	id, addr := msg.Hdr[0], mem.Addr(msg.Hdr[1])
	op, operand, compare := RmwOp(msg.Hdr[2]), msg.Hdr[3], msg.Hdr[4]

	faulty := c.M.faulty()
	if faulty {
		// At-least-once delivery: a duplicated or retried request must not
		// re-apply. Answer duplicates from the recorded prior value so the
		// initiator still gets its reply (the first one may have been lost);
		// one below the initiator's mark is answered too, and ignored there.
		if old, seen := c.rmwApplied.Seen(msg.Src.Rank, id, msg.Hdr[5]); seen {
			x.SendAM(th, msg.Src, dispatchRmwRep, []int64{id, old}, nil)
			return
		}
	}

	old := applyRmw(c.Space, addr, op, operand, compare)
	if faulty {
		c.rmwApplied.Record(msg.Src.Rank, id, old)
	}
	x.SendAM(th, msg.Src, dispatchRmwRep, []int64{id, old}, nil)
}

func handleRmwRep(th *sim.Thread, x *Context, msg *AMessage) {
	c := x.Client
	id := uint64(msg.Hdr[0])
	i := c.rmwFind(id)
	if i < 0 {
		// Reply to an abandoned operation, or a duplicate arriving after
		// RmwEnd. Only possible under fault injection; without it every
		// reply matches exactly one pending request.
		return
	}
	// A duplicate reply before RmwEnd carries the same value: the target
	// answers it from its dedup cache.
	pend := c.rmwPend[i]
	pend.result = msg.Hdr[1]
	pend.comp.FinishOnce()
}
