package network

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Steady-state Send must be allocation-free with observability off
// (routes memoized in topology, events pooled in the kernel) and
// allocation-constant with it on (per-link labels and counters are
// built once, trace rings recycle). These tests gate both.

// sendCycle drives n sends across a fixed set of (src, dst) pairs and
// runs the kernel to drain the deliveries.
func sendCycle(t *testing.T, k *sim.Kernel, nw *Network, n int) {
	t.Helper()
	fn := func() {}
	for i := 0; i < n; i++ {
		nw.Send(i%32, (i*7+3)%32, 512, Data, fn)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func newAllocFixture(reg *obs.Registry) (*sim.Kernel, *Network) {
	k := sim.NewKernel()
	k.SetObs(reg)
	tor := topology.New([topology.NumDims]int{2, 2, 2, 2, 2}, 1)
	return k, New(k, tor, DefaultParams())
}

func TestSendZeroAllocObsOff(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	k, nw := newAllocFixture(nil)
	sendCycle(t, k, nw, 4096) // warm route cache + kernel heap
	avg := testing.AllocsPerRun(50, func() {
		sendCycle(t, k, nw, 256)
	})
	if avg != 0 {
		t.Fatalf("Send (obs off): %.2f allocs per 256-send cycle, want 0", avg)
	}
}

// TestSendAllocPartitionedObsOff is the twin on a kernel partitioned one
// lane per node, where a cross-node send is logged for the window
// boundary: the logged closure is the path's one allocation per send,
// and each Run builds its lane executor and start channel. The pin is
// what the deferred path cost before the two paths became one; it must
// not rise. Sends are issued from inside the source lane, through
// closures built once outside the measured region.
func TestSendAllocPartitionedObsOff(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	k := sim.NewKernel()
	tor := topology.New([topology.NumDims]int{2, 2, 2, 2, 2}, 1)
	p := DefaultParams()
	k.ConfigureLanes(tor.Nodes(), 1, p.Lookahead(), nil)
	nw := New(k, tor, p)
	fn := func() {}
	const sends = 256
	senders := make([]func(), sends)
	for i := range senders {
		src, dst := i%32, (i*7+3)%32
		senders[i] = func() { nw.Send(src, dst, 512, Data, fn) }
	}
	cycle := func() {
		for i, send := range senders {
			k.LaneOf(i%32).At(1, send)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		cycle() // warm route cache, lane heaps and deferred logs
	}
	if avg := testing.AllocsPerRun(50, cycle); avg > sends+2 {
		t.Fatalf("Send (partitioned, obs off): %.2f allocs per %d-send cycle, want <= %d", avg, sends, sends+2)
	}
}

// TestSendMsgPartitionedZeroAlloc: the one allocation of a partitioned
// send is its record, so a caller that owns the record (pami's message in
// flight embeds it) sends for nothing. Same cycle as above, same +2 for
// each Run's executor.
func TestSendMsgPartitionedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	k := sim.NewKernel()
	tor := topology.New([topology.NumDims]int{2, 2, 2, 2, 2}, 1)
	p := DefaultParams()
	k.ConfigureLanes(tor.Nodes(), 1, p.Lookahead(), nil)
	nw := New(k, tor, p)
	const sends = 256
	delivered := 0
	deliver := sim.Func(func() { delivered++ })
	msgs := make([]Msg, sends)
	senders := make([]func(), sends)
	for i := range senders {
		m := &msgs[i]
		*m = Msg{Src: i % 32, Dst: (i*7 + 3) % 32, Payload: 512, Kind: Data, Deliver: deliver}
		senders[i] = func() { nw.SendMsg(m) }
	}
	cycle := func() {
		for i, send := range senders {
			k.LaneOf(i%32).At(1, send)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	delivered = 0
	if avg := testing.AllocsPerRun(50, cycle); avg > 2 {
		t.Fatalf("SendMsg (partitioned, obs off): %.2f allocs per %d-send cycle, want <= 2", avg, sends)
	}
	if delivered != 51*sends { // AllocsPerRun runs the cycle once more to warm up
		t.Fatalf("%d deliveries, want %d", delivered, 51*sends)
	}
}

func TestSendConstantAllocObsOn(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	k, nw := newAllocFixture(obs.New(obs.WithTrackCap(64)))
	// Warm-up: touch every (src, dst) pair and fill every link track's
	// trace ring to capacity so eviction (not growth) is steady state.
	sendCycle(t, k, nw, 16384)
	avg := testing.AllocsPerRun(50, func() {
		sendCycle(t, k, nw, 256)
	})
	// Traced sends are alloc-constant: the fixed cost is zero today
	// (labels, counters, and rings all pre-built); the bound leaves room
	// for at most one constant allocation per cycle, never per send.
	if avg > 1 {
		t.Fatalf("Send (obs on): %.2f allocs per 256-send cycle, want <= 1", avg)
	}
}

// TestNilRegistryNewAllocsNoBounds: a network on a kernel with no registry
// costs the same objects at 2 lanes as at 256 — its per-world arrays —
// and nothing per lane: a lane's payload-size histogram is nil, and its
// bounds are made once for the process, not once per lane.
func TestNilRegistryNewAllocsNoBounds(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	p := DefaultParams()
	objects := func(dims [topology.NumDims]int) float64 {
		tor := topology.New(dims, 1)
		k := sim.NewKernel()
		k.ConfigureLanes(tor.Nodes(), 1, p.Lookahead(), nil)
		return testing.AllocsPerRun(20, func() { New(k, tor, p) })
	}
	few, many := objects([topology.NumDims]int{2, 1, 1, 1, 1}), objects([topology.NumDims]int{4, 4, 4, 4, 1})
	t.Logf("network.New, nil registry: %.0f objects at 2 lanes, %.0f at 256", few, many)
	if many != few {
		t.Fatalf("network.New, nil registry: %.0f objects at 2 lanes, %.0f at 256: it allocates per lane", few, many)
	}
}
