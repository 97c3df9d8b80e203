package network

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The network has one send path, whatever kernel is under it. The table
// below drives the same sequence through an unpartitioned kernel (every
// node on the one lane, deferred operations applied immediately) and a
// kernel partitioned one lane per node (operations applied at window
// boundaries): every arrival time and every traffic total must agree.

type sendStep struct {
	name      string
	src, dst  int
	payload   int
	kind      MsgKind
	withLocal bool
	nic       bool
}

var sendSteps = []sendStep{
	{name: "cross-node", src: 0, dst: 1, payload: 64, kind: Data},
	{name: "cross-node control", src: 3, dst: 4, payload: 32, kind: Control},
	{name: "multi-hop", src: 0, dst: 7, payload: 4096, kind: Data},
	{name: "loopback", src: 2, dst: 2, payload: 64, kind: Data},
	{name: "with-local", src: 1, dst: 6, payload: 256, kind: Data, withLocal: true},
	{name: "with-local loopback", src: 5, dst: 5, payload: 16, kind: Data, withLocal: true},
	{name: "nic", src: 6, dst: 0, payload: 8, nic: true},
	{name: "nic loopback", src: 4, dst: 4, payload: 8, nic: true},
}

// stepGap spaces the steps so far apart that no two messages ever share
// an MU or a link: the sequence is uncontended by construction.
const stepGap = 100 * sim.Microsecond

// arrivals is what one run of the table observed: per step, the lane
// times at which the deliver and local completions fired (one entry per
// surviving copy).
type arrivals struct {
	Deliver, Local [][]sim.Time
	Totals         Traffic
	NicStalled     uint64
}

func runSendSteps(t *testing.T, partitioned bool, plan *fault.Plan) arrivals {
	t.Helper()
	tor := topology.New([topology.NumDims]int{2, 2, 2, 1, 1}, 1)
	p := DefaultParams()
	k := sim.NewKernel()
	if partitioned {
		k.ConfigureLanes(tor.Nodes(), 1, p.Lookahead(), nil)
	}
	nw := New(k, tor, p)
	if plan != nil {
		nw.SetFault(fault.NewInjector(k, plan, 1, nil))
	}
	got := arrivals{
		Deliver: make([][]sim.Time, len(sendSteps)),
		Local:   make([][]sim.Time, len(sendSteps)),
	}
	for i, st := range sendSteps {
		src, dst := k.LaneOf(st.src), k.LaneOf(st.dst)
		deliver := func() { got.Deliver[i] = append(got.Deliver[i], dst.Now()) }
		local := func() { got.Local[i] = append(got.Local[i], src.Now()) }
		k.SpawnOn(src, fmt.Sprintf("step-%d", i), func(th *sim.Thread) {
			th.Sleep(sim.Time(i+1) * stepGap)
			switch {
			case st.nic:
				nw.SendNIC(st.src, st.dst, st.payload, deliver)
			case st.withLocal:
				nw.SendMsg(&Msg{Src: st.src, Dst: st.dst, Payload: st.payload, Kind: st.kind,
					Deliver: sim.Func(deliver), Local: sim.Func(local)})
			default:
				nw.Send(st.src, st.dst, st.payload, st.kind, deliver)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("partitioned=%v: %v", partitioned, err)
	}
	got.Totals, got.NicStalled = nw.Totals(), nw.NicStalled
	return got
}

func TestSendPathAgreesAcrossKernels(t *testing.T) {
	nw := New(sim.NewKernel(), topology.New([topology.NumDims]int{2, 2, 2, 1, 1}, 1), DefaultParams())
	const nicDelay = 7 * sim.Microsecond
	plans := []struct {
		name string
		plan *fault.Plan
	}{
		{"fault-free", nil},
		// An injector with nothing scripted: every message takes the walk
		// that consults it, and must come out where the healthy one does.
		{"armed, never fires", fault.NewPlan(9)},
		// Step windows are [i*stepGap, (i+1)*stepGap) for step i-1. One
		// duplicated and one delayed cross-node message, a dead source
		// under the loopback, a degraded fabric under the acknowledged
		// send, a dead destination under the NIC reply, a delayed and
		// duplicated NIC loopback, and a coin-flip duplication over
		// everything so the injector's draw order counts.
		{"faulted", fault.NewPlan(9).
			Duplicate(0, 1, stepGap, stepGap, 1).
			Delay(3, 4, 2*stepGap, stepGap, 1, 7*sim.Microsecond).
			NodeDown(2, 4*stepGap, stepGap).
			LinkSlow(fault.Any, 5*stepGap, stepGap, 0.5).
			NodeDown(0, 7*stepGap, stepGap).
			Delay(4, 4, 8*stepGap, stepGap, 1, nicDelay).
			Duplicate(4, 4, 8*stepGap, stepGap, 1).
			Duplicate(fault.Any, fault.Any, 0, 10*stepGap, 0.5)},
	}
	nicLat := func(st sendStep) sim.Time {
		// A NIC-generated reply skips the injection MU.
		return nw.OneWayLatency(st.src, st.dst, st.payload, Control) - nw.Params().NicMsgOverhead
	}
	var healthy arrivals
	for _, tc := range plans {
		name := tc.name
		bare := runSendSteps(t, false, tc.plan)
		part := runSendSteps(t, true, tc.plan)
		if !reflect.DeepEqual(bare, part) {
			t.Errorf("%s: kernels disagree:\n unpartitioned %+v\n   partitioned %+v", name, bare, part)
		}
		switch name {
		case "armed, never fires":
			if !reflect.DeepEqual(bare, healthy) {
				t.Errorf("an injector that never fires moved a message:\n    armed %+v\n  healthy %+v", bare, healthy)
			}
			continue
		case "faulted":
			if len(bare.Deliver[0]) != 2 || len(bare.Deliver[3]) != 0 || len(bare.Deliver[6]) != 0 {
				t.Errorf("%s: plan did not bite: %+v", name, bare.Deliver)
			}
			// A NIC reply gets the whole message verdict, delay and
			// duplication included; the two copies of a loopback book
			// nothing, so they arrive together.
			at := 8*stepGap + nicLat(sendSteps[7]) + nicDelay
			if d := bare.Deliver[7]; len(d) != 2 || d[0] != at || d[1] != at {
				t.Errorf("%s: NIC loopback delivered at %v, want twice at %d", name, d, at)
			}
			continue
		}
		healthy = bare
		var want Traffic
		for i, st := range sendSteps {
			issued := sim.Time(i+1) * stepGap
			lat := nw.OneWayLatency(st.src, st.dst, st.payload, st.kind)
			if st.nic {
				lat = nicLat(st)
			}
			if d := bare.Deliver[i]; len(d) != 1 || d[0] != issued+lat {
				t.Errorf("%s: delivered at %v, want [%d]", st.name, d, issued+lat)
			}
			if l := bare.Local[i]; st.withLocal && (len(l) != 1 || l[0] != issued+lat) {
				t.Errorf("%s: local completion at %v, want [%d]", st.name, l, issued+lat)
			}
			want.Messages++
			want.Bytes += uint64(st.payload)
			want.RawBytes += uint64(nw.Params().RawBytes(st.payload))
			want.Hops += uint64(max(1, nw.Torus().RouteHops(st.src, st.dst)))
		}
		if bare.Totals != want || bare.NicStalled != 0 {
			t.Errorf("fault-free totals %+v (stalled %d), want %+v", bare.Totals, bare.NicStalled, want)
		}
	}
}
