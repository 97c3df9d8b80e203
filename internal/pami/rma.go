package pami

import (
	"repro/internal/mem"
	"repro/internal/network"
	"repro/internal/sim"
)

// rmaControlBytes is the wire size of an RDMA request / flush descriptor.
const rmaControlBytes = 32

// landing is what an RMA flight ticks when its bytes land: a completion,
// retired through the issuing context's progress engine (*retire), or one
// chunk of an op set (*OpSet). Both are pointers the caller already holds,
// so naming one costs a flight nothing. The flight keeps the generation of
// the landing's completion at issue (sim.Completion.Gen), so a duplicate
// that lands after its operation is over finishes nothing, though its
// retirement still costs the progress engine what any does.
type landing interface {
	gen() uint32
	landed(x *Context, gen uint32)
}

func (r *retire) gen() uint32 { return (*sim.Completion)(r).Gen() }

func (r *retire) landed(x *Context, gen uint32) { x.postRetire((*sim.Completion)(r), gen) }

func (s *OpSet) gen() uint32 { return s.comp.Gen() }

func (s *OpSet) landed(_ *Context, gen uint32) {
	if s.comp.Gen() == gen {
		s.done()
	}
}

// putFlight is one RDMA put from injection to local completion: a single
// heap value in three roles, as amFlight is for an active message. It is
// the network's record of the message (the embedded Msg), the arrival in
// the target's lane (Fire: the bytes land) and the local completion
// (putAck). It owns buf, the bytes borrowed at injection: an RDMA flight
// copies twice, and two is the floor, since the source may be reused once
// the put completes locally and the target rewritten after a get's
// turnaround. Its events — every copy's arrival, and the local completion,
// which a healthy run schedules itself and a chaos run takes from every
// copy (Msg.Local) — fire in two lanes; the last (Msg.Release) recycles
// flight and bytes on its lane.
type putFlight struct {
	network.Msg
	x      *Context
	done   landing
	gen    uint32 // done's generation at issue
	tc     *Client
	remote mem.Addr
	buf    []byte
}

// Fire is the arrival: the bytes land at the target.
func (f *putFlight) Fire() {
	f.tc.Space.CopyIn(f.remote, f.buf)
	f.release(f.tc)
}

// putAck is the flight as its local completion.
type putAck putFlight

func (a *putAck) Fire() {
	a.done.landed(a.x, a.gen)
	(*putFlight)(a).release(a.x.Client)
}

// release drops one of the flight's references, on c's lane.
func (f *putFlight) release(c *Client) {
	if f.Release() {
		c.hold().bufs.Return(f.buf)
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

	f := c.hold().put.Get()
	*f = putFlight{
		Msg:    network.Msg{Src: c.Node, Dst: dst.Node, Payload: n, Kind: network.Data},
		x:      x,
		done:   done,
		gen:    done.gen(),
		tc:     c.peer(dst.Rank),
		remote: remote,
	}
	f.Deliver = f
	// Capture the payload now: after local completion the user may reuse
	// the buffer, so the network must own a stable copy.
	f.buf = c.hold().bufs.Borrow(c.Space, local, n)
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
	f.Hold() // the ack below
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
// and the reply's landing (getLand). A get owns buf, the bytes captured at
// stream time. The request holds the reply (rep.Hold) until its last copy
// has turned around, so the reply's last release is the flight's last
// event, and recycles it on its lane.
type getFlight struct {
	req, rep      network.Msg
	x             *Context
	done          landing
	gen           uint32 // done's generation at issue
	fetch         bool
	tc            *Client
	local, remote mem.Addr
	buf           []byte
}

// Fire is the request's arrival at the target MU; after the turnaround
// the MU streams the reply back. The turnaround runs on the target's lane,
// where the delivery executes.
func (f *getFlight) Fire() { f.tc.Ln.AtAction(f.tc.M.P.MUTurnaround, (*getTurn)(f)) }

// getTurn is the flight as its turnaround.
type getTurn getFlight

func (t *getTurn) Fire() {
	f := (*getFlight)(t)
	r := f
	if f.rep.Deliver != nil {
		// The reply has gone already: a request duplicated under faults
		// turns around twice, and each turnaround streams its own reply
		// with its own bytes, as two separate flights would.
		r = f.tc.hold().get.Get()
		*r = getFlight{rep: network.Msg{Src: f.rep.Src, Dst: f.rep.Dst, Payload: f.rep.Payload, Kind: f.rep.Kind},
			x: f.x, done: f.done, gen: f.gen, fetch: f.fetch, tc: f.tc, local: f.local, remote: f.remote}
	}
	if r.fetch {
		r.buf = r.tc.hold().bufs.Borrow(r.tc.Space, r.remote, r.rep.Payload)
	}
	r.rep.Deliver = (*getLand)(r)
	r.tc.M.Net.SendMsg(&r.rep)
	if f.req.Release() {
		f.release(f.tc) // the request's hold on the reply
	}
}

// getLand is the flight as its reply's landing.
type getLand getFlight

func (l *getLand) Fire() {
	f := (*getFlight)(l)
	c := f.x.Client
	if f.fetch {
		c.Space.CopyIn(f.local, f.buf)
	}
	f.done.landed(f.x, f.gen)
	f.release(c)
}

// release drops one reference to the reply, on c's lane.
func (f *getFlight) release(c *Client) {
	if f.rep.Release() {
		c.hold().bufs.Return(f.buf)
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

	f := c.hold().get.Get()
	*f = getFlight{
		req:    network.Msg{Src: c.Node, Dst: dst.Node, Payload: rmaControlBytes, Kind: network.Control},
		rep:    network.Msg{Src: dst.Node, Dst: c.Node, Payload: n, Kind: network.Control},
		x:      x,
		done:   done,
		gen:    done.gen(),
		fetch:  fetch,
		tc:     c.peer(dst.Rank),
		local:  local,
		remote: remote,
	}
	if fetch {
		f.rep.Kind = network.Data
	}
	f.req.Deliver = f
	f.rep.Hold() // released by the request's last turnaround
	c.M.Net.SendMsg(&f.req)
}
