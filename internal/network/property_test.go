package network

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Latency is monotone in payload for a fixed pair, and raw bytes always
// dominate payload by at least one packet header.
func TestLatencyMonotoneInPayload(t *testing.T) {
	_, nw := testNet(8)
	f := func(a, b uint16) bool {
		m1 := int(a)%(1<<20) + 1
		m2 := int(b)%(1<<20) + 1
		if m1 > m2 {
			m1, m2 = m2, m1
		}
		l1 := nw.OneWayLatency(0, 1, m1, Data)
		l2 := nw.OneWayLatency(0, 1, m2, Data)
		// A larger payload may still be faster across the 256 B alignment
		// boundary; beyond it monotonicity must hold.
		if m1 >= 256 || m2 < 256 {
			return l1 <= l2
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRawBytesProperty(t *testing.T) {
	p := DefaultParams()
	f := func(x uint32) bool {
		m := int(x % (4 << 20))
		raw := p.RawBytes(m)
		if m <= 0 {
			return raw == p.PacketOverhead
		}
		packets := (m + p.PacketPayload - 1) / p.PacketPayload
		return raw == m+packets*p.PacketOverhead && raw > m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Conservation: every sent message is delivered exactly once, regardless
// of contention and routing mode.
func TestDeliveryConservation(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		k := sim.NewKernel()
		tor := topology.New([topology.NumDims]int{2, 2, 2, 2, 2}, 1)
		p := DefaultParams()
		p.AdaptiveRouting = adaptive
		nw := New(k, tor, p)
		const msgs = 200
		delivered := 0
		rng := sim.NewRNG(9)
		k.Spawn("drv", func(th *sim.Thread) {
			wg := sim.NewWaitGroup(k)
			wg.Add(msgs)
			for i := 0; i < msgs; i++ {
				src := rng.Intn(tor.Nodes())
				dst := rng.Intn(tor.Nodes())
				nw.Send(src, dst, rng.Intn(8192)+1, Data, func() {
					delivered++
					wg.Done()
				})
				if i%16 == 0 {
					th.Sleep(sim.Microsecond)
				}
			}
			wg.Wait(th)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if delivered != msgs {
			t.Fatalf("adaptive=%v: delivered %d of %d", adaptive, delivered, msgs)
		}
		if got := nw.Totals().Messages; got != msgs {
			t.Fatalf("adaptive=%v: counted %d messages", adaptive, got)
		}
	}
}
