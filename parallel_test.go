package repro

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// TestConcurrentRuntimeIsolation is the isolation invariant behind the
// parallel sweep engine: two complete simulations running concurrently
// in one process (each with its own Kernel, Machine, World, and
// registry) must produce exactly the results a lone serial run does.
// Run under -race this also proves the sim/network/pami/armci stack
// shares no mutable state between Runtimes.
func TestConcurrentRuntimeIsolation(t *testing.T) {
	wantEvents, wantFinal := goldenScenario()

	type out struct {
		events uint64
		final  int64
	}
	outs := make([]out, 2)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, f := goldenScenario()
			outs[i] = out{events: e, final: int64(f)}
		}(i)
	}
	wg.Wait()

	for i, o := range outs {
		if o.events != wantEvents || o.final != int64(wantFinal) {
			t.Errorf("concurrent run %d diverged from serial: got (%d, %d), want (%d, %d)",
				i, o.events, o.final, wantEvents, int64(wantFinal))
		}
	}
}

// renderSweep runs the Fig 9 sweep at the given worker count against a
// fresh registry and returns the CSV bytes plus the registry's full
// metrics and trace dumps.
func renderSweep(t *testing.T, workers int) (csv, metrics, trace string) {
	t.Helper()
	reg := obs.New()
	var sb strings.Builder
	bench.Fig9(bg, sweep.NewSharded(workers, 0, reg), []int{8, 16}, 4).RenderCSV(&sb)

	var mbuf, tbuf bytes.Buffer
	if err := reg.WritePrometheus(&mbuf); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteChromeTrace(&tbuf); err != nil {
		t.Fatal(err)
	}
	return sb.String(), mbuf.String(), tbuf.String()
}

// TestSweepWorkerCountInvariance is the determinism contract of the
// sweep engine: the rendered table AND the merged observability output
// (metrics dump, Chrome trace) are byte-identical whether the sweep ran
// on one worker or many.
func TestSweepWorkerCountInvariance(t *testing.T) {
	csv1, met1, tr1 := renderSweep(t, 1)
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		csvN, metN, trN := renderSweep(t, workers)
		if csvN != csv1 {
			t.Errorf("workers=%d: CSV differs from serial:\n%s\nvs\n%s", workers, csvN, csv1)
		}
		if metN != met1 {
			t.Errorf("workers=%d: metrics dump differs from serial", workers)
		}
		if trN != tr1 {
			t.Errorf("workers=%d: trace differs from serial", workers)
		}
	}
}

// TestSweepChaosWorkerCountInvariance extends the invariance check to
// the chaos profile, whose fault injection and recovery paths (seeded
// jitter, retries, duplicate suppression) are the likeliest place for
// hidden cross-run state to leak.
func TestSweepChaosWorkerCountInvariance(t *testing.T) {
	render := func(workers int) string {
		var sb strings.Builder
		bench.Chaos(bg, plan(workers, 0), []int{8, 16}, 6, 42).RenderCSV(&sb)
		return sb.String()
	}
	serial := render(1)
	for _, workers := range []int{2, 4} {
		if got := render(workers); got != serial {
			t.Errorf("workers=%d: chaos CSV differs from serial:\n%s\nvs\n%s", workers, got, serial)
		}
	}
}

// TestSweepOverlappingMaps: an engine holds no per-call state, so sweeps
// may overlap on one — which is how the serving layer runs concurrent
// jobs. Two Fig 9 sweeps running at once on a shared two-worker engine,
// each recording into its own registry, must render what a lone sweep
// does; under -race this is the proof the engine shares nothing between
// calls.
func TestSweepOverlappingMaps(t *testing.T) {
	eng := sweep.NewSharded(2, 0, nil)
	render := func() (csv, metrics string) {
		reg := obs.New()
		var sb strings.Builder
		bench.Fig9(sweep.WithRegistry(bg, reg), eng, []int{8, 16}, 4).RenderCSV(&sb)
		var mbuf bytes.Buffer
		if err := reg.WritePrometheus(&mbuf); err != nil {
			t.Error(err)
		}
		return sb.String(), mbuf.String()
	}
	wantCSV, wantMetrics := render()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if csv, metrics := render(); csv != wantCSV || metrics != wantMetrics {
				t.Errorf("overlapping sweep %d diverged from a lone one:\n%s\nvs\n%s", i, csv, wantCSV)
			}
		}()
	}
	wg.Wait()
}
