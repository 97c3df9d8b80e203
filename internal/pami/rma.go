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
// so naming one costs a flight nothing.
type landing interface {
	landed(x *Context)
}

func (r *retire) landed(x *Context) { x.postCompletion((*sim.Completion)(r)) }

func (s *OpSet) landed(*Context) { s.done() }

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

// put is the one put flight; done is ticked at local completion.
func (x *Context) put(th *sim.Thread, dst Endpoint, local, remote mem.Addr, n int, done landing) {
	c := x.Client
	p := c.M.P
	th.Sleep(c.jit(p.CPUInject))

	// Capture the payload now: after local completion the user may reuse
	// the buffer, so the network must own a stable copy.
	buf := c.Space.Clone(local, n)

	tgt := c.peer(dst.Rank).Space
	deliver := func() { tgt.CopyIn(remote, buf) }
	landed := func() { done.landed(x) }
	if c.M.faulty() {
		// Fault mode: completion is end-to-end, ticked only when the bytes
		// actually land. The MU's optimistic injection-complete ack would
		// report success for a message the injector then drops; tying the
		// completion to delivery is what lets a timed wait detect the loss
		// and retry. A put is byte-idempotent, so the retry may overlap a
		// delayed original harmlessly. The delivery (target memory) and the
		// completion (initiator progress engine) live on different lanes,
		// so they ride the message as a split completion pair.
		c.M.Net.SendMsg(&network.Msg{Src: c.Node, Dst: dst.Node, Payload: n, Kind: network.Data,
			Deliver: sim.Func(deliver), Local: sim.Func(landed)})
		return
	}
	c.M.Net.Send(c.Node, dst.Node, n, network.Data, deliver)
	ackDelay := p.NicMsgOverhead + p.SerTime(n) + p.PutAckFixed
	if n > 0 && n < p.UnalignedThreshold {
		ackDelay += p.UnalignedPenalty
	}
	c.Ln.At(ackDelay, landed)
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

// roundTrip is the one get flight: a control request to the target's
// messaging unit, its turnaround, and a reply of n bytes that ticks done
// when it arrives — n bytes of the target's memory at remote, copied to
// local, when fetch is set; an n-byte control ack otherwise.
func (x *Context) roundTrip(th *sim.Thread, dst Endpoint, local, remote mem.Addr, n int, fetch bool, done landing) {
	c := x.Client
	p := c.M.P
	th.Sleep(c.jit(p.CPUInject))

	tc := c.peer(dst.Rank)
	net := c.M.Net
	net.Send(c.Node, dst.Node, rmaControlBytes, network.Control, func() {
		// Request arrived at the target MU; after the turnaround it
		// streams the reply back. The bytes are captured at stream time.
		// The turnaround runs on the target's lane — that is where the
		// delivery callback executes.
		tc.Ln.At(p.MUTurnaround, func() {
			if !fetch {
				net.Send(dst.Node, c.Node, n, network.Control, func() { done.landed(x) })
				return
			}
			buf := tc.Space.Clone(remote, n)
			net.Send(dst.Node, c.Node, n, network.Data, func() {
				c.Space.CopyIn(local, buf)
				done.landed(x)
			})
		})
	})
}
