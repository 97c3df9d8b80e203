package network

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

func testNet(nodes int) (*sim.Kernel, *Network) {
	k := sim.NewKernel()
	t := topology.New(topology.FactorNodes(nodes), 1)
	return k, New(k, t, DefaultParams())
}

func TestRawBytesAndSerTime(t *testing.T) {
	p := DefaultParams()
	if p.RawBytes(16) != 16+64 {
		t.Fatalf("RawBytes(16)=%d", p.RawBytes(16))
	}
	if p.RawBytes(512) != 512+64 {
		t.Fatalf("RawBytes(512)=%d", p.RawBytes(512))
	}
	if p.RawBytes(513) != 513+2*64 {
		t.Fatalf("RawBytes(513)=%d", p.RawBytes(513))
	}
	if p.RawBytes(0) != 64 {
		t.Fatalf("RawBytes(0)=%d", p.RawBytes(0))
	}
	if p.SerTime(1024) != sim.Time(float64(1024+2*64)/2.0) {
		t.Fatalf("SerTime(1024)=%d", p.SerTime(1024))
	}
}

func TestPeakPayloadBandwidthNearPaper(t *testing.T) {
	p := DefaultParams()
	peak := p.PeakPayloadBandwidth()
	// Paper: "with overhead a maximum of 1.8 GB/s is available".
	if peak < 1700 || peak > 1850 {
		t.Fatalf("peak payload bandwidth %.0f MB/s outside [1700,1850]", peak)
	}
}

func TestSendArrivalUncontended(t *testing.T) {
	k, nw := testNet(4)
	var arrived sim.Time
	k.Spawn("src", func(th *sim.Thread) {
		done := sim.NewCompletion(k)
		nw.Send(0, 1, 16, Data, func() {
			arrived = k.Now()
			done.Finish()
		})
		done.Wait(th)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := nw.OneWayLatency(0, 1, 16, Data)
	if arrived != want {
		t.Fatalf("arrival %d, predicted %d", arrived, want)
	}
}

func TestLoopbackCostsOneHop(t *testing.T) {
	_, nw := testNet(4)
	self := nw.OneWayLatency(0, 0, 16, Data)
	adj := nw.OneWayLatency(0, 1, 16, Data)
	if self != adj {
		t.Fatalf("loopback %d != adjacent %d", self, adj)
	}
}

func TestUnalignedPenaltyAppliesBelowThreshold(t *testing.T) {
	_, nw := testNet(2)
	p := nw.Params()
	small := nw.OneWayLatency(0, 1, 255, Data)
	aligned := nw.OneWayLatency(0, 1, 256, Data)
	// 255 B pays the penalty; 256 B does not: the "dip" of Fig 3.
	if small <= aligned-p.SerTime(256)+p.SerTime(255) {
		t.Fatalf("no dip: 255B=%d 256B=%d", small, aligned)
	}
	ctrl := nw.OneWayLatency(0, 1, 32, Control)
	data := nw.OneWayLatency(0, 1, 32, Data)
	if data-ctrl != p.UnalignedPenalty {
		t.Fatalf("control traffic must not pay penalty: %d vs %d", ctrl, data)
	}
}

func TestHopLatencyGradient(t *testing.T) {
	k := sim.NewKernel()
	tor := topology.New([topology.NumDims]int{2, 2, 4, 4, 2}, 1)
	nw := New(k, tor, DefaultParams())
	base := nw.OneWayLatency(0, 1, 16, Data)
	for n := 2; n < tor.Nodes(); n++ {
		hops := tor.Hops(0, n)
		want := base + sim.Time(hops-1)*nw.Params().HopLatency
		if got := nw.OneWayLatency(0, n, 16, Data); got != want {
			t.Fatalf("node %d (%d hops): %d want %d", n, hops, got, want)
		}
	}
}

func TestNicSerializesStreams(t *testing.T) {
	k, nw := testNet(4)
	const msgs = 10
	const size = 4096
	var last sim.Time
	k.Spawn("src", func(th *sim.Thread) {
		wg := sim.NewWaitGroup(k)
		wg.Add(msgs)
		for i := 0; i < msgs; i++ {
			nw.Send(0, 1, size, Data, func() {
				last = k.Now()
				wg.Done()
			})
		}
		wg.Wait(th)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	p := nw.Params()
	perMsg := p.NicMsgOverhead + p.NicMsgGap + p.SerTime(size)
	// Tail message is delayed by (msgs-1) full NIC occupancy slots.
	minLast := sim.Time(msgs-1)*perMsg + nw.OneWayLatency(0, 1, size, Data)
	if last < minLast {
		t.Fatalf("stream finished at %d, NIC serialization requires >= %d", last, minLast)
	}
	if nw.NicStalled == 0 {
		t.Fatal("expected NIC stalls in a burst")
	}
}

func TestLinkContentionQueues(t *testing.T) {
	// Two different sources sharing the final link toward a common
	// destination must queue. Use a 1-D-ish torus: nodes 0->1->2 in C dim.
	k := sim.NewKernel()
	tor := topology.New([topology.NumDims]int{1, 1, 8, 1, 1}, 1)
	nw := New(k, tor, DefaultParams())
	const size = 65536
	var t1, t2 sim.Time
	k.Spawn("a", func(th *sim.Thread) {
		done := sim.NewCompletion(k)
		// 0 -> 2 traverses links 0->1 and 1->2.
		nw.Send(0, 2, size, Data, func() { t1 = k.Now(); done.Finish() })
		done.Wait(th)
	})
	k.Spawn("b", func(th *sim.Thread) {
		done := sim.NewCompletion(k)
		// 1 -> 2 shares link 1->2.
		nw.Send(1, 2, size, Data, func() { t2 = k.Now(); done.Finish() })
		done.Wait(th)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	solo := nw.OneWayLatency(1, 2, size, Data)
	later := t1
	if t2 > later {
		later = t2
	}
	if later <= solo {
		t.Fatalf("no link queueing: later=%d solo=%d", later, solo)
	}
}

func TestStatsAccumulate(t *testing.T) {
	k, nw := testNet(2)
	k.Spawn("src", func(th *sim.Thread) {
		done := sim.NewCompletion(k)
		nw.Send(0, 1, 1000, Data, func() { done.Finish() })
		done.Wait(th)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	tot := nw.Totals()
	if tot.Messages != 1 || tot.Bytes != 1000 {
		t.Fatalf("messages=%d bytes=%d", tot.Messages, tot.Bytes)
	}
	if tot.RawBytes <= tot.Bytes {
		t.Fatal("raw bytes must exceed payload")
	}
	if tot.Hops == 0 {
		t.Fatal("hops not counted")
	}
}

// Calibration cross-checks against the paper's headline numbers. These are
// analytic identities over the default parameters, so they pin the model
// down against accidental constant drift.
func TestCalibrationGetLatencyComponents(t *testing.T) {
	p := DefaultParams()
	// Components of a 16-byte adjacent-node blocking RDMA get (see Params doc).
	get := p.CPUInject +
		(p.NicMsgOverhead + p.RouterFixed + p.HopLatency + p.SerTime(32)) + // request
		p.MUTurnaround +
		(p.NicMsgOverhead + p.RouterFixed + p.HopLatency + p.SerTime(16) + p.UnalignedPenalty) + // data
		p.CompletionOverhead
	if get < 2830 || get > 2950 {
		t.Fatalf("model get(16B) = %d ns, want ~2890 (paper 2.89 us)", get)
	}
}

func TestCalibrationPutLatencyComponents(t *testing.T) {
	p := DefaultParams()
	put := p.CPUInject + p.NicMsgOverhead + p.SerTime(16) + p.UnalignedPenalty +
		p.PutAckFixed + p.CompletionOverhead
	if put < 2650 || put > 2760 {
		t.Fatalf("model put(16B) = %d ns, want ~2700 (paper 2.7 us)", put)
	}
}

func TestCalibrationStreamBandwidth(t *testing.T) {
	p := DefaultParams()
	bw := func(m int) float64 {
		per := float64(p.NicMsgOverhead+p.NicMsgGap) + float64(p.SerTime(m))
		return float64(m) / per * 1000 // MB/s
	}
	if peak := bw(1 << 20); peak < 1750 || peak > 1800 {
		t.Fatalf("peak stream bandwidth %.0f MB/s, want ~1775", peak)
	}
	// N1/2: half of the 1.8 GB/s ceiling should fall near 2 KB.
	half := p.PeakPayloadBandwidth() / 2
	lo, hi := bw(1024), bw(4096)
	if !(lo < half && hi > half) {
		t.Fatalf("N1/2 outside (1KB,4KB): bw(1K)=%.0f bw(4K)=%.0f half=%.0f", lo, hi, half)
	}
}
