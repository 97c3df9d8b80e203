package fault

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

// Injector evaluates a Plan against the virtual clock. The network asks
// it for a verdict on every message; window queries are pure functions of
// time, probabilistic ones advance the injector's private RNG in send
// order. One injector serves the whole machine.
type Injector struct {
	k    *sim.Kernel
	plan *Plan
	rng  *sim.RNG

	// Counters, counted where a fault bites (the network increments the
	// first four), so they reflect injected faults, not merely scripted
	// ones. Chaos harnesses assert on them; a registry reads them as
	// fault/msg.{dropped,delayed,duplicated}, fault/link.degraded and
	// fault/windows.
	Dropped    uint64 // messages discarded (node dead or link down)
	Delayed    uint64 // messages given extra latency
	Duplicated uint64 // messages delivered twice
	Degraded   uint64 // link traversals served at reduced bandwidth
	Windows    uint64 // fault windows opened so far

	reg *obs.Registry // nil when observability is off
}

// Verdict is the injector's ruling on one message send.
type Verdict struct {
	Drop      bool     // discard the message (it silently vanishes)
	Delay     sim.Time // extra latency to add before the head enters the network
	Duplicate bool     // deliver a second copy
}

// NewInjector binds a plan to a kernel. seed perturbs the probabilistic
// stream on top of Plan.Seed (pass the job seed so chaos runs track the
// job's other jitter streams). Window boundaries are scheduled as
// ordinary kernel events immediately: each opening/closing bumps the
// window counter and lands on the "faults" trace track, so the fault
// timeline is part of the deterministic event stream.
func NewInjector(k *sim.Kernel, plan *Plan, seed uint64, r *obs.Registry) *Injector {
	in := &Injector{
		k:    k,
		plan: plan,
		rng:  sim.NewRNG(plan.Seed ^ (seed*0x9e3779b97f4a7c15 + 0xfa17)),
		reg:  r,
	}
	r.Attach("fault/msg.dropped", &in.Dropped)
	r.Attach("fault/msg.delayed", &in.Delayed)
	r.Attach("fault/msg.duplicated", &in.Duplicated)
	r.Attach("fault/link.degraded", &in.Degraded)
	r.Attach("fault/windows", &in.Windows)
	now := k.Now()
	for i := range plan.Events {
		e := plan.Events[i]
		start := e.Start - now
		if start < 0 {
			start = 0
		}
		k.At(start, func() {
			in.Windows++
			if in.reg != nil {
				in.reg.SpanArg(obs.TrackOther, "faults", e.Kind.String(), "fault",
					e.Start, e.End, int64(i))
			}
		})
		end := e.End - now
		if end < 0 {
			end = 0
		}
		k.At(end, func() {
			if in.reg != nil {
				in.reg.InstantArg(obs.TrackOther, "faults", e.Kind.String()+".end", "fault",
					in.k.Now(), int64(i))
			}
		})
	}
	return in
}

// Plan returns the script the injector enforces.
func (in *Injector) Plan() *Plan { return in.plan }

func (e *Event) active(at sim.Time) bool { return at >= e.Start && at < e.End }

func match(filter, id int) bool { return filter == Any || filter == id }

// NodeDown reports whether node is inside a dead window at time t.
func (in *Injector) NodeDown(node int, t sim.Time) bool {
	for i := range in.plan.Events {
		e := &in.plan.Events[i]
		if e.Kind == NodeDown && e.Node == node && e.active(t) {
			return true
		}
	}
	return false
}

// LinkState evaluates link at time t: down means every traversal in the
// window is lost; otherwise factor is the fraction of nominal bandwidth
// available (1 when healthy, the minimum across overlapping LinkSlow
// windows when degraded).
func (in *Injector) LinkState(link int, t sim.Time) (down bool, factor float64) {
	factor = 1
	for i := range in.plan.Events {
		e := &in.plan.Events[i]
		if !e.active(t) || !match(e.Link, link) {
			continue
		}
		switch e.Kind {
		case LinkDown:
			return true, 0
		case LinkSlow:
			if e.Factor < factor {
				factor = e.Factor
			}
		}
	}
	return false, factor
}

// MessageVerdict rules on a message injected at time t from srcNode to
// dstNode: dead endpoints drop it, matching Delay/Duplicate windows roll
// the dice. The RNG advances once per matching active rule, in the
// kernel's deterministic send order.
func (in *Injector) MessageVerdict(srcNode, dstNode int, t sim.Time) Verdict {
	var v Verdict
	for i := range in.plan.Events {
		e := &in.plan.Events[i]
		if !e.active(t) {
			continue
		}
		switch e.Kind {
		case NodeDown:
			if e.Node == srcNode || e.Node == dstNode {
				v.Drop = true
			}
		case MsgDelay:
			if match(e.Src, srcNode) && match(e.Dst, dstNode) && in.rng.Float64() < e.Prob {
				v.Delay += e.Delay
			}
		case MsgDup:
			if match(e.Src, srcNode) && match(e.Dst, dstNode) && in.rng.Float64() < e.Prob {
				v.Duplicate = true
			}
		}
	}
	return v
}
