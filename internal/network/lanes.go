package network

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

// Lanes. Each node's traffic originates in the sim.Lane the kernel gives
// that node. Every message is a Msg and takes one road: sendNow or
// sendAtBoundary decides when its serial half runs, applySend takes the
// fault verdict and deposits the completions, transit books the MU and the
// route.
//
//   - A fault-free same-node loopback is booked inline in the source
//     lane, inside a parallel window: transit touches no shared state for
//     it (no MU, no links, the fixed local-router hop), and its counts go
//     to the lane's private tally (laneNetStats), which Totals adds to the
//     shared one.
//
//   - Everything else (cross-node, or any send under fault injection)
//     touches shared state — nicFree, linkFree, the injector's RNG and
//     counters, the parent observability registry — and that happens only
//     on the serial path. On a partitioned kernel the Msg is logged with
//     Lane.DeferOp/DeferRemoteOp and applied at the window boundary on the
//     coordinator goroutine, for the time the send was issued at, in the
//     boundary's canonical (time, lane, log index) order, so results are
//     identical at every worker count. On an unpartitioned kernel every
//     node shares the one lane, nothing runs beside it, and the same
//     booking happens immediately with no log in between (sendNow checks
//     Lane.Windowed first, so Send does not even make the record).
//
// Lower bounds (the Defer minEffect contract): a message's earliest effect
// anywhere is now + NicMsgOverhead + RouterFixed + HopLatency +
// SerTime(payload) — MU queueing, the sub-cache-line penalty, link
// queueing, degradation, and verdict delays only push completions later.
// A NIC-generated response (Msg.NIC) skips the MU, so its bound drops the
// NicMsgOverhead term; both bounds are ≥ now + Params.Lookahead(), which
// is what DeferRemote requires. Per-pair FIFO survives the split: all
// sends of one source node are logged by one lane in lane-time order,
// applied in that order at the boundary, and the MU/link bookings are
// monotone, so two messages between the same pair cannot reorder.
//
// One deliberate approximation, inherited from conservative parallel
// discrete-event simulation: a boundary applies operations from the
// *previous* window before lanes run the next one, so link reservations
// from different rounds are booked in round order, not global time
// order. Within a round the canonical order is total and deterministic;
// across rounds the booking order can differ from an unpartitioned
// kernel's, which books in global time order. This never violates
// causality (arrivals still respect every booked reservation) and is
// fully deterministic.

// laneNetStats is one lane's private slice of the network counters,
// written only from inside that lane's windows.
type laneNetStats struct {
	t     Traffic        // attached to the lane's own registry
	sizes *obs.Histogram // network/msg.bytes in the lane's own registry
}

// noteLaneSend counts one inline loopback in the sending lane's private
// counters.
func (nw *Network) noteLaneSend(src *sim.Lane, payload, hops int) {
	s := &nw.laneNet[src.Index()]
	s.t.note(s.sizes, payload, nw.params.RawBytes(payload), hops)
}

// Totals returns the traffic carried so far: the serial path's tally
// plus every lane's inline loopbacks. Read it from serial context —
// after the kernel has run, or from a coordinator event.
func (nw *Network) Totals() Traffic {
	t := nw.shared
	for i := range nw.laneNet {
		l := &nw.laneNet[i].t
		t.Messages += l.Messages
		t.Bytes += l.Bytes
		t.RawBytes += l.RawBytes
		t.Hops += l.Hops
	}
	return t
}
