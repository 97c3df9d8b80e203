package pami

import (
	"repro/internal/mem"
	"repro/internal/network"
	"repro/internal/sim"
)

// rmaControlBytes is the wire size of an RDMA request / flush descriptor.
const rmaControlBytes = 32

// RdmaPut transfers n bytes from local memory to remote memory with no
// remote CPU involvement: the bytes land at the target in pure network
// time. localComp is retired through this context's progress engine once
// the messaging unit signals injection completion (the paper's "buffer
// reuse semantics similar to MPI").
//
// Both sides must be RDMA-capable (registered); enforcing that is the
// caller's job — ARMCI consults its region caches before taking this path.
func (x *Context) RdmaPut(th *sim.Thread, dst Endpoint, local, remote mem.Addr, n int, localComp *sim.Completion) {
	c := x.Client
	p := c.M.P
	th.Sleep(c.jit(p.CPUInject))

	// Capture the payload now: after local completion the user may reuse
	// the buffer, so the network must own a stable copy.
	buf := c.Space.Clone(local, n)

	tgt := c.peer(dst.Rank).Space
	if c.M.faulty() {
		// Fault mode: completion is end-to-end, posted only when the bytes
		// actually land. The MU's optimistic injection-complete ack would
		// report success for a message the injector then drops; tying the
		// completion to delivery is what lets a timed wait detect the loss
		// and retry. RdmaPut is byte-idempotent, so the retry may overlap a
		// delayed original harmlessly. The delivery (target memory) and the
		// completion (initiator progress engine) live on different lanes,
		// so they ride the message as a split completion pair.
		if localComp == nil {
			c.M.Net.Send(c.Node, dst.Node, n, network.Data, func() {
				tgt.CopyIn(remote, buf)
			})
			return
		}
		c.M.Net.SendWithLocal(c.Node, dst.Node, n, network.Data, func() {
			tgt.CopyIn(remote, buf)
		}, func() {
			x.postCompletion(localComp)
		})
		return
	}
	c.M.Net.Send(c.Node, dst.Node, n, network.Data, func() {
		tgt.CopyIn(remote, buf)
	})

	if localComp != nil {
		ackDelay := p.NicMsgOverhead + p.SerTime(n) + p.PutAckFixed
		if n > 0 && n < p.UnalignedThreshold {
			ackDelay += p.UnalignedPenalty
		}
		c.Ln.At(ackDelay, func() { x.postCompletion(localComp) })
	}
}

// RdmaGet transfers n bytes from remote memory into local memory. The
// target messaging unit turns the request around without any target CPU
// involvement — the defining property of the RDMA fast path. comp is
// retired through this context's progress engine when the data lands.
func (x *Context) RdmaGet(th *sim.Thread, dst Endpoint, local, remote mem.Addr, n int, comp *sim.Completion) {
	c := x.Client
	p := c.M.P
	th.Sleep(c.jit(p.CPUInject))

	tc := c.peer(dst.Rank)
	src := tc.Space
	net := c.M.Net
	net.Send(c.Node, dst.Node, rmaControlBytes, network.Control, func() {
		// Request arrived at the target MU; after the turnaround it
		// streams the data back. The bytes are captured at stream time.
		// The turnaround runs on the target's lane — that is where the
		// delivery callback executes.
		tc.Ln.At(p.MUTurnaround, func() {
			buf := src.Clone(remote, n)
			net.Send(dst.Node, c.Node, n, network.Data, func() {
				c.Space.CopyIn(local, buf)
				x.postCompletion(comp)
			})
		})
	})
}

// RdmaPutSet is RdmaPut for one chunk of a multi-chunk transfer: the
// chunk's local completion decrements the op set instead of posting its
// own progress-engine item.
func (x *Context) RdmaPutSet(th *sim.Thread, dst Endpoint, local, remote mem.Addr, n int, set *OpSet) {
	c := x.Client
	p := c.M.P
	th.Sleep(c.jit(p.CPUInject))
	buf := c.Space.Clone(local, n)
	tgt := c.peer(dst.Rank).Space
	set.add()
	c.M.Net.Send(c.Node, dst.Node, n, network.Data, func() {
		tgt.CopyIn(remote, buf)
	})
	ackDelay := p.NicMsgOverhead + p.SerTime(n) + p.PutAckFixed
	if n > 0 && n < p.UnalignedThreshold {
		ackDelay += p.UnalignedPenalty
	}
	c.Ln.At(ackDelay, func() { set.done() })
}

// RdmaGetSet is RdmaGet for one chunk of a multi-chunk transfer.
func (x *Context) RdmaGetSet(th *sim.Thread, dst Endpoint, local, remote mem.Addr, n int, set *OpSet) {
	c := x.Client
	p := c.M.P
	th.Sleep(c.jit(p.CPUInject))
	tc := c.peer(dst.Rank)
	src := tc.Space
	net := c.M.Net
	set.add()
	net.Send(c.Node, dst.Node, rmaControlBytes, network.Control, func() {
		tc.Ln.At(p.MUTurnaround, func() {
			buf := src.Clone(remote, n)
			net.Send(dst.Node, c.Node, n, network.Data, func() {
				c.Space.CopyIn(local, buf)
				set.done()
			})
		})
	})
}

// FlushRemote completes when every prior put/AM from this process to the
// target rank is visible in its memory. It rides the deterministic
// routing's per-pair FIFO ordering: a control message chases the earlier
// traffic to the target MU and its ack returns. No target CPU is needed.
func (x *Context) FlushRemote(th *sim.Thread, dst Endpoint, comp *sim.Completion) {
	c := x.Client
	p := c.M.P
	th.Sleep(c.jit(p.CPUInject))

	tc := c.peer(dst.Rank)
	net := c.M.Net
	net.Send(c.Node, dst.Node, rmaControlBytes, network.Control, func() {
		tc.Ln.At(p.MUTurnaround, func() {
			net.Send(dst.Node, c.Node, rmaControlBytes, network.Control, func() {
				x.postCompletion(comp)
			})
		})
	})
}
