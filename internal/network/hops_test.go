package network

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// TestHopAccountingUnified pins the hop-statistics contract across both
// injection paths: remote transfers count their route length, and
// loopback (same-node) transfers count the single local-MU hop they pay
// in the latency model — identically for Send and SendNIC.
func TestHopAccountingUnified(t *testing.T) {
	tor := topology.New([topology.NumDims]int{2, 2, 2, 1, 1}, 1)

	run := func(send func(nw *Network, fn func())) uint64 {
		k := sim.NewKernel()
		nw := New(k, tor, DefaultParams())
		done := false
		send(nw, func() { done = true })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if !done {
			t.Fatal("message not delivered")
		}
		return nw.Totals().Hops
	}

	// Remote: node 0 -> node 7 is 3 hops on a 2x2x2 partition.
	wantRemote := uint64(tor.Hops(0, 7))
	if got := run(func(nw *Network, fn func()) { nw.Send(0, 7, 64, Data, fn) }); got != wantRemote {
		t.Errorf("Send remote hops = %d, want %d", got, wantRemote)
	}
	if got := run(func(nw *Network, fn func()) { nw.SendNIC(0, 7, 8, fn) }); got != wantRemote {
		t.Errorf("SendNIC remote hops = %d, want %d", got, wantRemote)
	}

	// Loopback: both paths charge one hop of latency and count one hop.
	if got := run(func(nw *Network, fn func()) { nw.Send(3, 3, 64, Data, fn) }); got != 1 {
		t.Errorf("Send loopback hops = %d, want 1", got)
	}
	if got := run(func(nw *Network, fn func()) { nw.SendNIC(3, 3, 8, fn) }); got != 1 {
		t.Errorf("SendNIC loopback hops = %d, want 1", got)
	}
}
