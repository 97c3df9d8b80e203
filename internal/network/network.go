package network

import (
	"fmt"
	"strconv"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
)

// MsgKind distinguishes control traffic from data transfers; only data
// transfers pay the sub-cache-line alignment penalty.
type MsgKind int

const (
	// Control messages: RDMA get requests, acks, AM headers.
	Control MsgKind = iota
	// Data messages: payload-bearing RDMA streams and AM payloads.
	Data
)

// Network simulates the 5-D torus plus each node's messaging unit. All
// methods must be called from simulation context (a thread or an event
// callback); the network schedules downstream events on the sending and
// receiving nodes' lanes.
type Network struct {
	torus  *topology.Torus
	params *Params

	// lanes[n] is the simulation lane that owns node n, as the kernel
	// reports it: the node's own lane on a kernel partitioned one lane
	// per node, the kernel's one scheduler otherwise. See lanes.go.
	lanes   []*sim.Lane
	laneNet []laneNetStats // indexed by Lane.Index

	// nicFree[n] is the time node n's injection MU becomes available.
	nicFree []sim.Time
	// linkFree[id] is the time each unidirectional link becomes available.
	linkFree []sim.Time

	// flt, when non-nil, injects scripted faults into every send. The
	// healthy hot path pays exactly one nil check.
	flt *fault.Injector

	// shared counts the messages booked on the serial path; inline
	// loopbacks count into laneNet. Totals sums both.
	shared Traffic
	// NicStalled counts messages that waited for the injection MU.
	NicStalled uint64

	// Observability (all nil when disabled; hot paths pay one nil check).
	obs         *obs.Registry
	links       []linkObs      // per-link handles, created on first use
	qdelay      *obs.Histogram // per-traversal link queueing delay
	sharedBytes *obs.Histogram // payload sizes booked on the serial path
}

// Traffic is a tally of carried messages. Hops counts a loopback
// (same-node) transfer as one hop — the local MU traversal it pays in
// the latency model — for both Send and SendNIC, so `network/hops` is
// consistent across all injection paths.
type Traffic struct {
	Messages, Bytes, RawBytes, Hops uint64
}

// observe attaches the tally's fields to r as the network's message
// counters and returns the payload-size histogram kept beside them (nil
// when r is nil).
func (t *Traffic) observe(r *obs.Registry) *obs.Histogram {
	r.Attach("network/messages", &t.Messages)
	r.Attach("network/payload_bytes", &t.Bytes)
	r.Attach("network/raw_bytes", &t.RawBytes)
	r.Attach("network/hops", &t.Hops)
	return r.Histogram("network/msg.bytes", obs.ExpBounds(16, 4, 12))
}

// note records one message of payload bytes (raw on the wire) over hops
// links into the tally and its size into sizes.
func (t *Traffic) note(sizes *obs.Histogram, payload, raw, hops int) {
	t.Messages++
	t.Bytes += uint64(payload)
	t.RawBytes += uint64(raw)
	t.Hops += uint64(hops)
	sizes.Observe(int64(payload))
}

// linkObs holds one link's observability handles: the busy-time counter
// and the trace track (nil when the registry keeps no trace). Both are
// resolved once, on the link's first reservation, so steady-state sends
// format no name and look up no track.
type linkObs struct {
	busy  *obs.Counter
	trace *obs.Track
}

// New builds a network for the given torus partition on kernel k, which
// must already be set up: the network takes each node's lane and the
// observability registry (per-link busy time and queueing delay,
// message/byte/hop counters, one trace track per traversed torus link)
// from it, so Kernel.SetObs and ConfigureLanes come first. A partitioned
// kernel must have exactly one lane per node.
func New(k *sim.Kernel, t *topology.Torus, p *Params) *Network {
	if n := len(k.Lanes()); n != 0 && n != t.Nodes() {
		panic("network: a partitioned kernel needs exactly one lane per node")
	}
	nw := &Network{
		torus:    t,
		params:   p,
		lanes:    make([]*sim.Lane, t.Nodes()),
		laneNet:  make([]laneNetStats, max(1, len(k.Lanes()))),
		nicFree:  make([]sim.Time, t.Nodes()),
		linkFree: make([]sim.Time, t.NumLinks()),
	}
	for i := range nw.lanes {
		nw.lanes[i] = k.LaneOf(i)
	}
	for i := range nw.laneNet {
		// lanes[i] is the lane with index i on either kind of kernel.
		s := &nw.laneNet[i]
		s.sizes = s.t.observe(nw.lanes[i].Obs())
	}
	if r := k.Obs(); r != nil {
		nw.obs = r
		nw.links = make([]linkObs, t.NumLinks())
		nw.qdelay = r.Histogram("network/link.qdelay_ns", obs.DefaultLatencyBounds)
		r.Attach("network/nic.stalled", &nw.NicStalled)
		nw.sharedBytes = nw.shared.observe(r)
	}
	return nw
}

// SetFault installs a fault injector; every subsequent send consults it.
// Nil disables injection. Adaptive routing is not supported under fault
// injection: with an injector installed every message takes the
// deterministic walk (the armci layer already refuses the combination;
// network-layer adaptive studies run fault-free).
func (nw *Network) SetFault(in *fault.Injector) { nw.flt = in }

// Fault returns the installed injector, nil when faults are off. Upper
// layers use it both for counters and as the "is this a chaos run" flag
// that arms their recovery paths.
func (nw *Network) Fault() *fault.Injector { return nw.flt }

// reserveLink books one unidirectional link for ser starting no earlier
// than head, queueing behind the current reservation, and returns the
// (possibly delayed) head time. Both route walks (deterministic,
// adaptive) funnel through it so link accounting is uniform.
func (nw *Network) reserveLink(id int, head, ser sim.Time) sim.Time {
	start := head
	if nw.linkFree[id] > start {
		start = nw.linkFree[id]
	}
	nw.linkFree[id] = start + ser
	if nw.obs != nil {
		nw.qdelay.Observe(start - head)
		l := &nw.links[id]
		if l.busy == nil {
			nw.resolveLink(l, id)
		}
		l.busy.Add(ser)
		l.trace.SpanArg("xfer", "net", start, start+ser, ser)
	}
	return start
}

// resolveLink makes link id's handles at its first reservation.
func (nw *Network) resolveLink(l *linkObs, id int) {
	name := strconv.AppendInt([]byte("network/link.busy_ns{link="), int64(id), 10)
	l.busy = nw.obs.Counter(string(append(name, '}')))
	if nw.obs.Tracing() {
		l.trace = nw.obs.Track(obs.TrackLink, fmt.Sprintf("link-%06d", id))
	}
}

// Torus returns the partition geometry.
func (nw *Network) Torus() *topology.Torus { return nw.torus }

// Params returns the machine constants.
func (nw *Network) Params() *Params { return nw.params }

// Msg is one message in flight: everything the network needs from
// injection to arrival. It is the record a send leaves in its lane's
// boundary log (sim.Deferred: Apply books the MU and the route and deposits
// the completions), so a layer whose own per-message state embeds a Msg
// and hands it to SendMsg puts a message on the wire without the network
// allocating anything.
type Msg struct {
	Src, Dst int // nodes
	Payload  int // bytes
	Kind     MsgKind
	// NIC marks a response produced inside the messaging unit's atomics
	// engine (a hardware-AMO reply): it bypasses the injection FIFO, so it
	// neither waits for nor occupies the MU and pays no NicMsgOverhead.
	// Link reservation along the route still applies.
	NIC bool
	// Deliver fires in the destination node's lane when the message
	// arrives (its tail). Local, when non-nil, fires in the source node's
	// lane at the same instant: the initiator-side completion of an
	// acknowledged operation whose protocol piggybacks both on one
	// traversal. Under faults the two share the message's fate — a drop
	// fires neither, a duplicate fires both per surviving copy. They are
	// two deposits, not one event, because they land in different nodes'
	// lanes; where both nodes share a lane, Deliver still runs first and
	// nothing scheduled by it can come between the two.
	Deliver, Local sim.Action

	nw *Network // set when the message is logged for a boundary
}

// Apply is the message's boundary operation: the serial half of its send,
// for a message injected at time at.
func (m *Msg) Apply(at sim.Time) { m.nw.applySend(at, m) }

// Send injects a message of payload bytes from srcNode to dstNode at the
// current virtual time and schedules fn at the arrival (tail) time. The
// model is virtual cut-through: the head advances one HopLatency per
// router while the tail trails by the serialization time; each traversed
// link is reserved for the serialization time, so concurrent streams
// through a shared link queue behind each other.
//
// Same-node transfers still pass through the local MU loopback and cost
// one hop, matching the observation that ARMCI on BG/Q routes intra-node
// transfers through the torus injection path.
func (nw *Network) Send(srcNode, dstNode, payload int, kind MsgKind, fn func()) {
	nw.send(Msg{Src: srcNode, Dst: dstNode, Payload: payload, Kind: kind, Deliver: sim.Func(fn)})
}

// SendNIC is Send for a NIC-generated control response (Msg.NIC).
func (nw *Network) SendNIC(srcNode, dstNode, payload int, fn func()) {
	nw.send(Msg{Src: srcNode, Dst: dstNode, Payload: payload, NIC: true, Deliver: sim.Func(fn)})
}

// send is the body of Send and SendNIC. Only a message that has to wait
// for a window boundary needs a record that outlives the call, and that
// one is made here.
func (nw *Network) send(m Msg) {
	if !nw.sendNow(&m) {
		rec := m
		nw.sendAtBoundary(&rec)
	}
}

// SendMsg is Send for a message the caller owns: m must stay untouched
// until its completions have fired, and the network keeps no copy. It must
// be called from within m.Src's lane, like every send: the node's threads,
// or a completion previously deposited into it.
func (nw *Network) SendMsg(m *Msg) {
	if !nw.sendNow(m) {
		nw.sendAtBoundary(m)
	}
}

// sendNow carries the message out on the spot when nothing has to be
// deferred around, and reports whether it did: a fault-free loopback
// touches no shared state (transit books neither MU nor links for it), and
// a lane that is not windowed runs beside nothing. It keeps no reference
// to m.
func (nw *Network) sendNow(m *Msg) bool {
	src := nw.lanes[m.Src]
	now := src.Now()

	if nw.flt == nil && m.Src == m.Dst {
		arrival, hops, _ := nw.transit(now, m)
		nw.noteLaneSend(src, m.Payload, hops)
		src.AtAction(arrival-now, m.Deliver)
		if m.Local != nil {
			src.AtAction(arrival-now, m.Local)
		}
		return true
	}
	if !src.Windowed() {
		nw.applySend(now, m)
		return true
	}
	return false
}

// muOverhead is what a message pays to enter the network through the
// injection FIFO; a NIC-generated response is already inside the MU.
func (nw *Network) muOverhead(m *Msg) sim.Time {
	if m.NIC {
		return 0
	}
	return nw.params.NicMsgOverhead
}

// sendAtBoundary logs m, which must outlive the call, as its own deferred
// operation in the source lane.
func (nw *Network) sendAtBoundary(m *Msg) {
	p := nw.params
	src := nw.lanes[m.Src]
	m.nw = nw
	minEffect := src.Now() + nw.muOverhead(m) + p.RouterFixed + p.HopLatency + p.SerTime(m.Payload)
	if m.Local == nil && m.Src != m.Dst {
		// Effects land only in the destination lane: the relaxed cap.
		src.DeferRemoteOp(minEffect, m)
	} else {
		// A local completion (or a faulty loopback) can land back in this
		// very lane at minEffect, so the window must stop there.
		src.DeferOp(minEffect, m)
	}
}

// applySend is the serial half of a send, for a message injected at time
// at. With an injector installed it first takes the message verdict (dead
// endpoints, probabilistic delay and duplication). A dropped message
// vanishes — no completion is ever scheduled — which is exactly the
// failure the upper layers' timeouts must detect. A duplicated message
// traverses twice, so the copy pays its own MU and link reservations,
// contends like a real retransmission and arrives later; deduplication is
// the receiver's problem, as on a real at-least-once transport. Every copy
// that arrives is counted and its completions deposited into the
// destination's (and, with Msg.Local, the source's) lane.
func (nw *Network) applySend(at sim.Time, m *Msg) {
	copies := 1
	if nw.flt != nil {
		v := nw.flt.MessageVerdict(m.Src, m.Dst, at)
		if v.Drop {
			nw.flt.Dropped++
			return
		}
		if v.Delay > 0 {
			nw.flt.Delayed++
			at += v.Delay
		}
		if v.Duplicate {
			copies = 2
			nw.flt.Duplicated++
		}
	}
	for ; copies > 0; copies-- {
		arrival, hops, ok := nw.transit(at, m)
		if !ok {
			continue
		}
		nw.shared.note(nw.sharedBytes, m.Payload, nw.params.RawBytes(m.Payload), hops)
		nw.lanes[m.Dst].ScheduleAbsAction(arrival, m.Deliver)
		if m.Local != nil {
			nw.lanes[m.Src].ScheduleAbsAction(arrival, m.Local)
		}
	}
}

// transit books the injection MU and the route for one copy of m whose
// head reaches the MU at time now, and returns its (tail arrival, hops,
// ok). The shared state it touches — nicFree, linkFree, link
// observability, the injector — is only ever touched on the serial path;
// a loopback touches none of it. Per-link fault state (outage,
// degradation) is consulted only when an injector is installed; ok is
// false when the head reached a dead link mid-route: the message is lost,
// but links already traversed keep their reservations (the bytes really
// crossed them).
func (nw *Network) transit(now sim.Time, m *Msg) (sim.Time, int, bool) {
	p := nw.params
	ser := p.SerTime(m.Payload)

	// Injection MU: per-message occupancy rate-limits streams. Loopback
	// transfers use the MU's local-copy path and skip the injection FIFO,
	// so a same-node RDMA-get reply does not queue behind its own request.
	start := now
	if m.Src != m.Dst && !m.NIC {
		if nw.nicFree[m.Src] > start {
			start = nw.nicFree[m.Src]
			nw.NicStalled++
		}
		nw.nicFree[m.Src] = start + p.NicMsgOverhead + p.NicMsgGap + ser
	}

	// Head traversal. The sub-cache-line penalty is charged before the
	// route so that messages between a pair stay FIFO (fence correctness
	// depends on per-pair ordering under deterministic routing).
	head := start + nw.muOverhead(m) + p.RouterFixed
	if m.Kind == Data && m.Payload > 0 && m.Payload < p.UnalignedThreshold {
		head += p.UnalignedPenalty
	}
	if p.AdaptiveRouting && nw.flt == nil && m.Src != m.Dst {
		// Adaptive routes are minimal too, so the hop count is the same.
		return nw.traverseAdaptive(m.Src, m.Dst, head, ser), nw.torus.RouteHops(m.Src, m.Dst), true
	}
	route := nw.torus.Route(m.Src, m.Dst) // cached, shared: read-only; nil for a loopback
	hops := len(route)
	if hops == 0 {
		// Loopback through the local router: one hop equivalent.
		head += p.HopLatency
		hops = 1
	}
	tail := ser // the tail trails the head by the last link's effective serialization
	for _, l := range route {
		tail = ser
		if nw.flt != nil {
			down, factor := nw.flt.LinkState(l.ID(), head)
			if down {
				nw.flt.Dropped++
				return 0, 0, false
			}
			if factor < 1 {
				tail = sim.Time(float64(ser) / factor)
				nw.flt.Degraded++
			}
		}
		head = nw.reserveLink(l.ID(), head, tail) + p.HopLatency
	}
	return head + tail, hops, true
}

// OneWayLatency predicts the uncontended arrival delay of a message; used
// by analytic cross-checks and tests, never by the protocols themselves.
func (nw *Network) OneWayLatency(srcNode, dstNode, payload int, kind MsgKind) sim.Time {
	p := nw.params
	hops := nw.torus.RouteHops(srcNode, dstNode)
	if hops == 0 {
		hops = 1
	}
	t := p.NicMsgOverhead + p.RouterFixed + sim.Time(hops)*p.HopLatency + p.SerTime(payload)
	if kind == Data && payload > 0 && payload < p.UnalignedThreshold {
		t += p.UnalignedPenalty
	}
	return t
}
