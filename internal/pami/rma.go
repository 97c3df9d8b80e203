package pami

import (
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/network"
	"repro/internal/sim"
)

// rmaControlBytes is the wire size of an RDMA request / flush descriptor.
const rmaControlBytes = 32

// landing is what an RMA flight ticks when its bytes land: a completion,
// retired through the issuing context's progress engine (*retire), or one
// chunk of an op set (*OpSet). Both are pointers the caller already holds,
// so naming one costs a flight nothing.
type landing interface {
	landed(x *Context)
}

func (r *retire) landed(x *Context) { x.postCompletion((*sim.Completion)(r)) }

func (s *OpSet) landed(*Context) { s.done() }

// rdmaPayload is the bytes an RDMA flight owns: captured from one space when
// the model says the network reads them, copied into another when they
// land. That is two copies, and two is the floor — the source may be
// reused once the put completes locally, the target may be rewritten
// after a get's turnaround, so the network cannot carry a view of either.
// The captured bytes are borrowed from the capturing lane's classes. On a
// healthy run every message is delivered exactly once, so the landing
// hands them to the landing lane's right after its CopyIn; under an
// injector a delivery can fire twice or never, and the buffer is left to
// the garbage collector.
type rdmaPayload struct {
	buf     []byte
	recycle bool
}

// capture copies [a, a+n) of c's space, on c's lane.
func (p *rdmaPayload) capture(c *Client, a mem.Addr, n int) {
	p.buf, p.recycle = c.hold().bufs.Borrow(c.Space, a, n), !c.M.faulty()
}

// land copies the bytes to a in c's space, on c's lane.
func (p *rdmaPayload) land(c *Client, a mem.Addr) {
	c.Space.CopyIn(a, p.buf)
	if p.recycle {
		c.hold().bufs.Return(p.buf)
	}
}

// putFlight is one RDMA put from injection to local completion: a single
// heap value in three roles, as amFlight is for an active message. It is
// the network's record of the message (the embedded Msg), the arrival in
// the target's lane (Fire: the bytes land) and the local completion
// (putAck), and it owns the bytes it captured at injection. A healthy run
// recycles it once both have fired, on the lane of the one that fired
// last.
type putFlight struct {
	network.Msg
	x      *Context
	done   landing
	tc     *Client
	remote mem.Addr
	// refs counts the arrival and the local completion still to fire on a
	// healthy run (2 at issue). They fire in two lanes, which can run on
	// two workers in one round, so each decrements atomically and the one
	// that reaches 0 recycles the flight. A chaos run leaves it 0: a
	// delivery can fire twice or never, and the flight is left to the GC.
	refs atomic.Int32
	rdmaPayload
}

// Fire is the arrival: the bytes land at the target.
func (f *putFlight) Fire() {
	f.land(f.tc, f.remote)
	f.release(f.tc)
}

// putAck is the flight as its local completion.
type putAck putFlight

func (a *putAck) Fire() {
	a.done.landed(a.x)
	(*putFlight)(a).release(a.x.Client)
}

// release drops one of a healthy flight's two references, on c's lane; the
// last one resets the flight and puts it back there. recycle, set at issue
// and read-only until then, says whether the flight is counted at all.
func (f *putFlight) release(c *Client) {
	if f.recycle && f.refs.Add(-1) == 0 {
		*f = putFlight{}
		c.hold().put.Put(f)
	}
}

// RdmaPut transfers n bytes from local memory to remote memory with no
// remote CPU involvement: the bytes land at the target in pure network
// time. localComp is retired through this context's progress engine once
// the messaging unit signals injection completion (the paper's "buffer
// reuse semantics similar to MPI").
//
// Both sides must be RDMA-capable (registered); enforcing that is the
// caller's job — ARMCI consults its region caches before taking this path.
func (x *Context) RdmaPut(th *sim.Thread, dst Endpoint, local, remote mem.Addr, n int, localComp *sim.Completion) {
	x.put(th, dst, local, remote, n, (*retire)(localComp))
}

// RdmaPut is Context.RdmaPut for one chunk of a multi-chunk transfer: the
// chunk's local completion decrements the op set instead of posting its
// own progress-engine item.
func (s *OpSet) RdmaPut(th *sim.Thread, dst Endpoint, local, remote mem.Addr, n int) {
	s.remaining++
	s.x.put(th, dst, local, remote, n, s)
}

// put issues the one put flight; done is ticked at local completion.
func (x *Context) put(th *sim.Thread, dst Endpoint, local, remote mem.Addr, n int, done landing) {
	c := x.Client
	p := c.M.P
	th.Sleep(c.jit(p.CPUInject))

	f := flight(c, &c.hold().put)
	*f = putFlight{
		Msg:    network.Msg{Src: c.Node, Dst: dst.Node, Payload: n, Kind: network.Data},
		x:      x,
		done:   done,
		tc:     c.peer(dst.Rank),
		remote: remote,
	}
	f.Deliver = f
	// Capture the payload now: after local completion the user may reuse
	// the buffer, so the network must own a stable copy.
	f.capture(c, local, n)
	if f.recycle {
		f.refs.Store(2)
	}
	if c.M.faulty() {
		// Fault mode: completion is end-to-end, ticked only when the bytes
		// actually land. The MU's optimistic injection-complete ack would
		// report success for a message the injector then drops; tying the
		// completion to delivery is what lets a timed wait detect the loss
		// and retry. A put is byte-idempotent, so the retry may overlap a
		// delayed original harmlessly. The delivery (target memory) and the
		// completion (initiator progress engine) live on different lanes,
		// so they ride the message as a split completion pair.
		f.Local = (*putAck)(f)
		c.M.Net.SendMsg(&f.Msg)
		return
	}
	c.M.Net.SendMsg(&f.Msg)
	ackDelay := p.NicMsgOverhead + p.SerTime(n) + p.PutAckFixed
	if n > 0 && n < p.UnalignedThreshold {
		ackDelay += p.UnalignedPenalty
	}
	c.Ln.AtAction(ackDelay, (*putAck)(f))
}

// getFlight is one RDMA get or remote flush from issue to landing: the
// request and its reply are both its messages, and it is the request's
// arrival at the target's messaging unit (Fire), the turnaround (getTurn)
// and the reply's landing (getLand). A get owns the bytes it captured at
// stream time. A healthy run recycles it on its issuer's lane once it has
// landed.
type getFlight struct {
	req, rep      network.Msg
	x             *Context
	done          landing
	tc            *Client
	local, remote mem.Addr
	fetch         bool
	rdmaPayload
}

// Fire is the request's arrival at the target MU; after the turnaround
// the MU streams the reply back. The turnaround runs on the target's lane,
// where the delivery executes.
func (f *getFlight) Fire() { f.tc.Ln.AtAction(f.tc.M.P.MUTurnaround, (*getTurn)(f)) }

// getTurn is the flight as its turnaround.
type getTurn getFlight

func (t *getTurn) Fire() {
	f := (*getFlight)(t)
	if f.rep.Deliver != nil {
		// The reply has gone already: a request duplicated under faults
		// turns around twice, and each turnaround streams its own reply
		// with its own bytes, as two separate flights would.
		dup := *f
		f = &dup
	}
	if f.fetch {
		// The bytes are captured at stream time.
		f.capture(f.tc, f.remote, f.rep.Payload)
	}
	f.rep.Deliver = (*getLand)(f)
	f.tc.M.Net.SendMsg(&f.rep)
}

// getLand is the flight as its reply's landing.
type getLand getFlight

func (l *getLand) Fire() {
	f := (*getFlight)(l)
	c := f.x.Client
	if f.fetch {
		f.land(c, f.local)
	}
	f.done.landed(f.x)
	if !c.M.faulty() {
		// The landing is the flight's last event when every message is
		// delivered exactly once.
		*f = getFlight{}
		c.hold().get.Put(f)
	}
}

// RdmaGet transfers n bytes from remote memory into local memory. The
// target messaging unit turns the request around without any target CPU
// involvement — the defining property of the RDMA fast path. comp is
// retired through this context's progress engine when the data lands.
func (x *Context) RdmaGet(th *sim.Thread, dst Endpoint, local, remote mem.Addr, n int, comp *sim.Completion) {
	x.roundTrip(th, dst, local, remote, n, true, (*retire)(comp))
}

// RdmaGet is Context.RdmaGet for one chunk of a multi-chunk transfer.
func (s *OpSet) RdmaGet(th *sim.Thread, dst Endpoint, local, remote mem.Addr, n int) {
	s.remaining++
	s.x.roundTrip(th, dst, local, remote, n, true, s)
}

// FlushRemote completes when every prior put/AM from this process to the
// target rank is visible in its memory. It rides the deterministic
// routing's per-pair FIFO ordering: a control message chases the earlier
// traffic to the target MU and its ack returns — a get's round trip
// carrying nothing. No target CPU is needed.
func (x *Context) FlushRemote(th *sim.Thread, dst Endpoint, comp *sim.Completion) {
	x.roundTrip(th, dst, 0, 0, rmaControlBytes, false, (*retire)(comp))
}

// roundTrip issues the one get flight: a control request to the target's
// messaging unit, its turnaround, and a reply of n bytes that ticks done
// when it arrives — n bytes of the target's memory at remote, copied to
// local, when fetch is set; an n-byte control ack otherwise.
func (x *Context) roundTrip(th *sim.Thread, dst Endpoint, local, remote mem.Addr, n int, fetch bool, done landing) {
	c := x.Client
	th.Sleep(c.jit(c.M.P.CPUInject))

	f := flight(c, &c.hold().get)
	*f = getFlight{
		req:    network.Msg{Src: c.Node, Dst: dst.Node, Payload: rmaControlBytes, Kind: network.Control},
		rep:    network.Msg{Src: dst.Node, Dst: c.Node, Payload: n, Kind: network.Control},
		x:      x,
		done:   done,
		tc:     c.peer(dst.Rank),
		local:  local,
		remote: remote,
		fetch:  fetch,
	}
	if fetch {
		f.rep.Kind = network.Data
	}
	f.req.Deliver = f
	c.M.Net.SendMsg(&f.req)
}
