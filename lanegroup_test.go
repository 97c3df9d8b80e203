package repro

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/armci"
	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The lane-group grain and the serial-boundary oracle are not settings
// of armci, sweep, bench or any binary: they live on the sim kernel. The
// tests below reach them the only way left — they build the world on a
// kernel of their own and set it between armci.NewWorld (which picks
// AutoLaneGroup and the staged boundary) and Start.

// runTuned runs body on a world whose kernel uses the given lane-group
// grain and boundary path, and returns the finished world.
func runTuned(t *testing.T, cfg armci.Config, laneGroup int, serialBoundary bool,
	body func(th *sim.Thread, rt *armci.Runtime)) *armci.World {
	t.Helper()
	k := sim.NewKernel()
	w, err := armci.NewWorld(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k.SetLaneGroup(laneGroup)
	k.SetSerialBoundary(serialBoundary)
	w.Start(body)
	if err := k.Run(); err != nil {
		t.Fatalf("shards=%d group=%d serial=%v: %v", cfg.Shards, laneGroup, serialBoundary, err)
	}
	w.M.Net.FoldLaneStats()
	return w
}

// tunedGoldenRun runs the golden scenario and captures everything a
// lane execution setting could conceivably perturb (the shardGoldenRun
// capture set).
func tunedGoldenRun(t *testing.T, shards, laneGroup int, serialBoundary bool) (events uint64, final sim.Time, metrics, trace string) {
	t.Helper()
	reg := obs.New(obs.WithTrackCap(256))
	w := runTuned(t, goldenConfig(shards, reg), laneGroup, serialBoundary, goldenBody)
	var mbuf, tbuf bytes.Buffer
	if err := reg.WriteMetrics(&mbuf); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteChromeTrace(&tbuf); err != nil {
		t.Fatal(err)
	}
	return w.K.EventsFired(), w.K.Now(), mbuf.String(), tbuf.String()
}

// tunedChaosRun runs a chaos world — workers hammering a rank-0 counter
// and a per-rank slot with the error-returning API, straddling
// bench.ChaosPlan's outage and dead-node windows — and returns its whole
// recovery story as one comparable string.
func tunedChaosRun(t *testing.T, shards, laneGroup int, serialBoundary bool) string {
	t.Helper()
	const procs, opsEach = 8, 10
	cfg := armci.Config{Procs: procs, ProcsPerNode: 4, AsyncThread: true,
		Seed: 42, Fault: bench.ChaosPlan(42), Shards: shards}
	var counter int64
	opErrors := make([]int, procs) // per-rank slots: ranks run on parallel lanes
	w := runTuned(t, cfg, laneGroup, serialBoundary, func(th *sim.Thread, rt *armci.Runtime) {
		a := rt.Malloc(th, 8+procs*64)
		if rt.Rank == 0 {
			rt.Barrier(th)
			counter = rt.Space().GetInt64(a.At(0).Addr)
			return
		}
		local := rt.LocalAlloc(th, 64)
		if d := bench.FaultEpoch - th.Now(); d > 0 {
			th.Sleep(d) // align the op stream to the plan's fault windows
		}
		for i := 0; i < opsEach; i++ {
			if _, err := rt.FetchAddErr(th, a.At(0), 1); err != nil {
				opErrors[rt.Rank]++
			}
			if err := rt.PutErr(th, local, a.At(0).Add(8+rt.Rank*64), 64); err != nil {
				opErrors[rt.Rank]++
			}
			th.Sleep(100 * sim.Microsecond)
		}
		rt.Barrier(th)
	})
	if want := int64((procs - 1) * opsEach); counter != want {
		t.Errorf("shards=%d group=%d serial=%v: counter %d, want %d (lost or doubled fetch-adds)",
			shards, laneGroup, serialBoundary, counter, want)
	}
	if w.Faults.Dropped == 0 {
		t.Errorf("chaos world injected no drops; the matrix would prove nothing")
	}
	return fmt.Sprintf("events %d final %d counter %d errs %v stats %v dropped %d delayed %d duplicated %d",
		w.K.EventsFired(), w.K.Now(), counter, opErrors, w.AggregateStatsSorted(),
		w.Faults.Dropped, w.Faults.Delayed, w.Faults.Duplicated)
}

var laneMatrix = []struct{ shards, group int }{
	{1, 1}, {1, 4}, {1, 16},
	{2, 1}, {2, 4}, {2, 16},
	{4, 1}, {4, 4}, {4, 16},
}

// TestShardLaneGroupMatrix is the full execution invariance matrix over
// the golden scenario: every {1,2,4} shard × {1,4,16} lane-group
// combination must reproduce the serial run's event count, final
// virtual time, metrics bytes, and trace bytes exactly. The lane-group
// grain only changes how runnable lanes are chunked onto workers —
// horizons and boundary order stay per-lane — so, like the worker
// count, it cannot touch a simulated byte.
func TestShardLaneGroupMatrix(t *testing.T) {
	e0, f0, m0, tr0 := tunedGoldenRun(t, 1, 1, false)
	for _, mx := range laneMatrix {
		e, f, m, tr := tunedGoldenRun(t, mx.shards, mx.group, false)
		if e != e0 || f != f0 {
			t.Errorf("shards=%d group=%d diverged: events/final (%d, %d), want (%d, %d)",
				mx.shards, mx.group, e, f, e0, f0)
		}
		if m != m0 {
			t.Errorf("shards=%d group=%d: metrics bytes differ", mx.shards, mx.group)
		}
		if tr != tr0 {
			t.Errorf("shards=%d group=%d: trace bytes differ", mx.shards, mx.group)
		}
	}
}

// TestChaosLaneGroupMatrix extends the matrix to fault injection: the
// recovery story (retries, timeouts, drops, recovered data) must be
// identical at every shard × lane-group setting, because fault verdicts
// are drawn in the serial boundary phase in canonical order.
func TestChaosLaneGroupMatrix(t *testing.T) {
	base := tunedChaosRun(t, 1, 1, false)
	for _, mx := range laneMatrix {
		if got := tunedChaosRun(t, mx.shards, mx.group, false); got != base {
			t.Errorf("chaos shards=%d group=%d diverged:\n got %s\nwant %s",
				mx.shards, mx.group, got, base)
		}
	}
}

// TestBoundaryOracleEquivalence pins the staged parallel boundary
// against the serial k-way-merge oracle (Kernel.SetSerialBoundary): both
// paths must produce identical events, final time, metrics, and trace
// bytes — the serial path inserts each deposit directly in canonical
// order, the parallel path stages per destination lane and inserts
// concurrently, and per-lane staging order equals canonical order, so
// the destination's seq tie-breaks cannot differ.
func TestBoundaryOracleEquivalence(t *testing.T) {
	for _, mx := range laneMatrix {
		eS, fS, mS, trS := tunedGoldenRun(t, mx.shards, mx.group, true)
		eP, fP, mP, trP := tunedGoldenRun(t, mx.shards, mx.group, false)
		if eS != eP || fS != fP {
			t.Errorf("shards=%d group=%d: oracle (%d, %d) vs parallel (%d, %d)",
				mx.shards, mx.group, eS, fS, eP, fP)
		}
		if mS != mP {
			t.Errorf("shards=%d group=%d: metrics bytes differ between boundary paths", mx.shards, mx.group)
		}
		if trS != trP {
			t.Errorf("shards=%d group=%d: trace bytes differ between boundary paths", mx.shards, mx.group)
		}
		if oracle, staged := tunedChaosRun(t, mx.shards, mx.group, true), tunedChaosRun(t, mx.shards, mx.group, false); oracle != staged {
			t.Errorf("shards=%d group=%d: chaos boundary paths diverged:\noracle %s\nstaged %s",
				mx.shards, mx.group, oracle, staged)
		}
	}
}
