// What simulating costs the host: the paper's figure runs, then the
// kernel, network and engine rows below them (`make bench`, `make
// bench-shards`). The figures' verdict is TestPaperClaims, not these.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/armci"
	"repro/internal/bench"
	"repro/internal/network"
	"repro/internal/nwchem"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// benchEng is the one plan every benchmark below runs on, so worker pools
// stay warm across iterations.
var benchEng = plan(0, 0)

// BenchmarkPaperClaims simulates the run set at quick scale, one
// sub-benchmark per run (bench.RunNames; a derived figure includes the run
// it derives from).
func BenchmarkPaperClaims(b *testing.B) {
	for _, name := range bench.RunNames {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bench.NewRunSet(bg, benchEng, bench.Quick).Grid(name)
			}
		})
	}
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
