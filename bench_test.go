// One benchmark per table/figure of the paper's evaluation section. Each
// runs a (scaled-down) simulation per iteration and reports the paper's
// headline metric via b.ReportMetric; `armci-bench fig` and `armci-bench
// scf` regenerate the full-scale series. Below them, what the host pays to
// simulate at all (`make bench`, `make bench-shards`).
package repro

import (
	"fmt"
	"testing"

	"repro/internal/armci"
	"repro/internal/bench"
	"repro/internal/loggp"
	"repro/internal/network"
	"repro/internal/nwchem"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// benchEng is the one plan every benchmark below runs on, so worker pools
// stay warm across iterations.
var benchEng = plan(0, 0)

// BenchmarkTableII measures the PAMI object-creation costs (α β γ δ and
// context creation) that Table II reports.
func BenchmarkTableII(b *testing.B) {
	var g *bench.Grid
	for i := 0; i < b.N; i++ {
		g = bench.TableII()
	}
	b.ReportMetric(float64(len(g.Rows)), "attributes")
}

// BenchmarkFig3Latency reports the adjacent-node 16-byte get and put
// latencies (paper: 2.89 us and 2.7 us).
func BenchmarkFig3Latency(b *testing.B) {
	var get, put float64
	for i := 0; i < b.N; i++ {
		g := bench.Fig3(bg, benchEng, []int{16}, 10)
		get, put = g.Column("get_us")[0], g.Column("put_us")[0]
	}
	b.ReportMetric(get*1000, "get16B_ns")
	b.ReportMetric(put*1000, "put16B_ns")
}

// BenchmarkFig4Bandwidth reports the 1 MB streamed put bandwidth
// (paper: 1775 MB/s peak).
func BenchmarkFig4Bandwidth(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		g := bench.Fig4(bg, benchEng, []int{1 << 20}, 16)
		peak = g.Column("put_MBs")[0]
	}
	b.ReportMetric(peak, "peak_MB/s")
}

// BenchmarkFig5LatencyPerByte reports the 4 KB effective latency per byte
// (paper: ~1 ns/byte beyond 4 KB).
func BenchmarkFig5LatencyPerByte(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		g := bench.Fig5(bg, benchEng, []int{4096}, 10)
		v = g.Column("ns_per_byte")[0]
	}
	b.ReportMetric(v, "ns/byte@4KB")
}

// BenchmarkFig6NHalf reports the measured N1/2 (paper: 2 KB).
func BenchmarkFig6NHalf(b *testing.B) {
	var nHalf float64
	for i := 0; i < b.N; i++ {
		g := bench.Fig6(bg, benchEng, []int{1024, 2048, 4096}, 16)
		eff := g.Column("efficiency")
		nHalf = 4096
		for j, m := range []float64{1024, 2048, 4096} {
			if eff[j] >= 0.5 {
				nHalf = m
				break
			}
		}
	}
	b.ReportMetric(nHalf, "Nhalf_bytes")
}

// BenchmarkFig7RankSweep reports the per-hop latency gradient on a
// scaled-down partition (paper: 35 ns/hop/direction).
func BenchmarkFig7RankSweep(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		g := bench.Fig7(bg, benchEng, 128, 8, 2, 4)
		rows = len(g.Rows)
	}
	b.ReportMetric(float64(rows), "ranks_measured")
}

// BenchmarkFig8Strided reports strided get bandwidth at l0 = 8 KB over a
// 1 MB patch (the Fig 8 mid-curve point).
func BenchmarkFig8Strided(b *testing.B) {
	var bw float64
	for i := 0; i < b.N; i++ {
		g := bench.Fig8(bg, benchEng, []int{8192}, 1<<20)
		bw = g.Column("get_MBs")[0]
	}
	b.ReportMetric(bw, "MB/s@l0=8K")
}

// BenchmarkFig9Rmw reports the four Fig 9 configurations at 16 processes:
// D/AT x idle/computing rank 0.
func BenchmarkFig9Rmw(b *testing.B) {
	var dIdle, atIdle, dComp, atComp float64
	for i := 0; i < b.N; i++ {
		dIdle = bench.Fig9Point(bg, benchEng, 16, 16, false, false, 8)
		atIdle = bench.Fig9Point(bg, benchEng, 16, 16, true, false, 8)
		dComp = bench.Fig9Point(bg, benchEng, 16, 16, false, true, 8)
		atComp = bench.Fig9Point(bg, benchEng, 16, 16, true, true, 8)
	}
	b.ReportMetric(dIdle, "D_idle_us")
	b.ReportMetric(atIdle, "AT_idle_us")
	b.ReportMetric(dComp, "D_compute_us")
	b.ReportMetric(atComp, "AT_compute_us")
}

// BenchmarkFig11SCF reports the Default-vs-AsyncThread reduction of the
// SCF proxy at benchmark scale (paper: up to 30% at 4096 processes; the
// full-scale run is `armci-bench scf`).
func BenchmarkFig11SCF(b *testing.B) {
	scfg := nwchem.Config{Mol: nwchem.NewMolecule([]int{8, 6, 6, 8, 6, 6}),
		Iterations: 2, FlopRate: 2e7}
	var red float64
	for i := 0; i < b.N; i++ {
		d := nwchem.Experiment(armci.Config{Procs: 16, ProcsPerNode: 16}, scfg)
		at := nwchem.Experiment(armci.Config{Procs: 16, ProcsPerNode: 16, AsyncThread: true}, scfg)
		red = 100 * (1 - float64(at.WallTime)/float64(d.WallTime))
	}
	b.ReportMetric(red, "AT_reduction_pct")
}

// BenchmarkEq7Eq8Fallback reports the measured RDMA-vs-fallback gap at
// 16 bytes (Eq 7 vs Eq 8: one extra remote o).
func BenchmarkEq7Eq8Fallback(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		g := bench.EqValidation(bg, benchEng, []int{16}, 10)
		ratio = g.Column("ratio")[0]
	}
	b.ReportMetric(ratio, "fallback/rdma")
}

// BenchmarkEq9StridedModel reports the analytic-vs-simulated strided time
// agreement at l0 = 1 KB over 1 MB (Eq 9).
func BenchmarkEq9StridedModel(b *testing.B) {
	m := loggp.FromParams(network.DefaultParams(), 1)
	var modelUS, simUS float64
	for i := 0; i < b.N; i++ {
		g := bench.Fig8(bg, benchEng, []int{1024}, 1<<20)
		simUS = float64(1<<20) / g.Column("get_MBs")[0] / 1000 * 1000
		modelUS = m.TStrided(1<<20, 1024) / 1000
	}
	b.ReportMetric(modelUS, "model_us")
	b.ReportMetric(simUS, "sim_us")
}

// BenchmarkAblationContexts reports §III.D's 1-vs-2 context main-thread
// latency penalty.
func BenchmarkAblationContexts(b *testing.B) {
	var one, two float64
	for i := 0; i < b.N; i++ {
		g := bench.AblationContexts(bg, benchEng, 50)
		lat := g.Column("main_get_us")
		one, two = lat[0], lat[1]
	}
	b.ReportMetric(one, "rho1_us")
	b.ReportMetric(two, "rho2_us")
}

// BenchmarkAblationConsistency reports §III.E's naive-vs-per-region fence
// counts on the dgemm pattern.
func BenchmarkAblationConsistency(b *testing.B) {
	var naive, perRegion float64
	for i := 0; i < b.N; i++ {
		g := bench.AblationConsistency(bg, benchEng, 50)
		f := g.Column("fences")
		naive, perRegion = f[0], f[1]
	}
	b.ReportMetric(naive, "naive_fences")
	b.ReportMetric(perRegion, "cs_mr_fences")
}

// --- the cost of simulating, not the simulated cost: per event, switch,
// message and operation (ns/op means something only at the default
// benchtime), then per whole simulation (one op each; run them at a fixed
// -benchtime Nx). allocs/op is the machine-independent column. ---

// tickChain is one event scheduling the next, delay ns apart, b.N times.
func tickChain(b *testing.B, delay sim.Time) {
	k := sim.NewKernel()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.At(delay, tick)
		}
	}
	k.At(delay, tick)
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelEvents measures raw event throughput of the DES kernel.
func BenchmarkKernelEvents(b *testing.B) { tickChain(b, 1) }

// BenchmarkKernelEventsZeroDelay is the same chain at delay 0: the
// Spawn/Wake/Yield fast path.
func BenchmarkKernelEventsZeroDelay(b *testing.B) { tickChain(b, 0) }

// BenchmarkThreadSwitch measures coroutine handoff cost: two threads
// sleeping against each other, so every sleep has to switch (a lone
// sleeper's wake-up is fired in place and never leaves the thread — the
// next benchmark).
func BenchmarkThreadSwitch(b *testing.B) {
	k := sim.NewKernel()
	for i := 0; i < 2; i++ {
		k.Spawn("switcher", func(th *sim.Thread) {
			for n := i; n < b.N; n += 2 {
				th.Sleep(1)
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	if b.N > 2 && k.Switches() < uint64(b.N) {
		b.Fatalf("%d sleeps made only %d switches: this benchmark no longer times one", b.N, k.Switches())
	}
}

// BenchmarkSleepUncontended is a sleep nothing interrupts: the lane's next
// event is the sleeper's own wake-up, which Sleep fires where it stands.
func BenchmarkSleepUncontended(b *testing.B) {
	k := sim.NewKernel()
	k.Spawn("sleeper", func(th *sim.Thread) {
		for i := 0; i < b.N; i++ {
			th.Sleep(1)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkNetworkSend measures the network model's message rate across a
// 128-node torus, observability off.
func BenchmarkNetworkSend(b *testing.B) {
	k := sim.NewKernel()
	tor := topology.New([topology.NumDims]int{2, 2, 4, 4, 2}, 1)
	nw := network.New(k, tor, network.DefaultParams())
	k.Spawn("src", func(th *sim.Thread) {
		wg := sim.NewWaitGroup(k)
		wg.Add(b.N)
		done := wg.Done
		for i := 0; i < b.N; i++ {
			nw.Send(i%128, (i*7)%128, 512, network.Data, done)
			if i%64 == 0 {
				th.Sleep(1)
			}
		}
		wg.Wait(th)
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimulatedGetRate measures how many full ARMCI blocking gets
// (2 ranks, async thread) the harness simulates per wall second.
func BenchmarkSimulatedGetRate(b *testing.B) {
	armci.MustRun(armci.Config{Procs: 2, ProcsPerNode: 1, AsyncThread: true},
		func(th *sim.Thread, rt *armci.Runtime) {
			a := rt.Malloc(th, 4096)
			if rt.Rank != 0 {
				return
			}
			local := rt.LocalAlloc(th, 4096)
			rt.Get(th, a.At(1), local, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.Get(th, a.At(1), local, 64)
			}
		})
}

// BenchmarkFig9P4096 is one whole simulation per op: Fig 9 at paper scale,
// 4096 ranks hammering a rank-0 counter through the async progress thread.
func BenchmarkFig9P4096(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig9Point(bg, benchEng, 4096, 16, true, false, 2)
	}
}

// BenchmarkSCFReduced is the Fig 11 proxy at 256 ranks, one iteration.
func BenchmarkSCFReduced(b *testing.B) {
	scfg := nwchem.Config{Mol: nwchem.NewMolecule([]int{8, 6, 6, 8, 6, 6}),
		Iterations: 1, FlopRate: 2e7}
	for i := 0; i < b.N; i++ {
		nwchem.Experiment(armci.Config{Procs: 256, ProcsPerNode: 16, AsyncThread: true}, scfg)
	}
}

// benchSweep times one whole figure sweep per op on one sweep worker and
// on as many as GOMAXPROCS allows; the ratio of the two rows is the
// parallel-sweep speed-up on this host (TestSweep*WorkerCountInvariance
// hold the bytes equal).
func benchSweep(b *testing.B, render func(eng *sweep.Engine) *bench.Grid) {
	for _, w := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=max", 0}} {
		b.Run(w.name, func(b *testing.B) {
			eng := plan(w.workers, 0)
			for i := 0; i < b.N; i++ {
				render(eng)
			}
			b.ReportMetric(float64(eng.Workers()), "sweep-workers")
		})
	}
}

func BenchmarkSweepFig9(b *testing.B) {
	benchSweep(b, func(eng *sweep.Engine) *bench.Grid {
		return bench.Fig9(bg, eng, []int{2, 16, 64, 256}, 8)
	})
}

func BenchmarkSweepChaos(b *testing.B) {
	benchSweep(b, func(eng *sweep.Engine) *bench.Grid {
		return bench.Chaos(bg, eng, []int{8, 16, 32}, 10, 42)
	})
}

// BenchmarkFig9Shards is intra-run lane scaling: the same fig9 simulation
// per op on 1, 2 and 4 lane workers (`make bench-shards`). The shard count
// is an execution knob, never a result knob, so a simulated latency that
// differs between two of them fails the benchmark. CoreBudget resolves N
// lower on a host with fewer cores — lane-workers is what the row ran on,
// and a shards=N row says nothing about scaling unless it reads N.
func BenchmarkFig9Shards(b *testing.B) {
	for _, procs := range []int{16384, 65536} {
		if procs > 16384 && testing.Short() {
			continue
		}
		var ref float64 // the first latency simulated at this p
		for _, shards := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("p=%d/shards=%d", procs, shards), func(b *testing.B) {
				eng := plan(1, shards)
				for i := 0; i < b.N; i++ {
					v := bench.Fig9Point(bg, eng, procs, 16, true, false, 2)
					if ref == 0 {
						ref = v
					}
					if v != ref {
						b.Fatalf("simulated latency %v us at %d shards, %v us before: shard count changed a result", v, shards, ref)
					}
				}
				b.ReportMetric(float64(eng.Shards()), "lane-workers")
			})
		}
	}
}
