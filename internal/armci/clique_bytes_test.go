package armci

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// cliqueHeapPerRank is the live heap, per rank, of a finished world in
// which every rank puts to, gets from, accumulates into and fences each of
// its zeta next ranks. The world is held while the collector runs, so
// what is counted is what its ranks keep; the carrier pool, which outlives
// worlds, is emptied on both sides of the run.
func cliqueHeapPerRank(t *testing.T, procs, zeta int) float64 {
	t.Helper()
	var before, after runtime.MemStats
	sim.DrainCarrierPool()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	w, err := Run(Config{Procs: procs, ProcsPerNode: 16, AsyncThread: true}, func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 1024)
		local := rt.LocalAlloc(th, 1024)
		for i := 1; i <= zeta; i++ {
			r := (rt.Rank + i) % procs
			rt.Put(th, local, a.At(r), 64)
			rt.Get(th, a.At(r), local, 64)
			rt.Acc(th, local, a.At(r), 64, 1)
			rt.Fence(th, r)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.DrainCarrierPool()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(w)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(procs)
}

// TestCliqueBytesPerPeer: a rank's host memory is a + b·ζ, Eq. 5's
// M_r = τ·γ + σ·ζ·γ on the host, with nothing that grows with p. Every
// rank of a p-rank world puts to, gets from, accumulates into and fences
// its ζ next ranks, ζ ∈ {1, 8, 64}; the live heap per rank, fitted to
// a + b·ζ by least squares, has the same a at p = 1024 and at p = 4096
// (within 5 %), and b, the bytes per peer, stays within 114: the measured
// 107 plus 7 % (179 while region-cache buckets were a map beside the
// clique table and a record kept two endpoints). The step from ζ = 1 to 8
// is the records past the first, in chunks of 2, 4 and 8, with their
// index: at most 620 B, the measured 590 plus 5 % (1 328 while a second
// peer paid for a first chunk of chunkLen records and a 32-slot index).
// The p = 4096 row is ≈ 18 s of the test's ≈ 21 s on 2 cores, so -short
// runs p = 1024 alone.
func TestCliqueBytesPerPeer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	procs := []int{1024, 4096}
	if testing.Short() {
		procs = procs[:1]
	}
	t.Cleanup(func() { sim.DrainCarrierPool() })
	// Page in the code paths, and make the goroutines the largest world
	// runs on: the Go runtime keeps a goroutine's descriptor for reuse, so
	// the first world to need more than exist would count them as its own.
	cliqueHeapPerRank(t, procs[len(procs)-1], 1)
	zetas := []float64{1, 8, 64}
	var a0 float64
	for i, p := range procs {
		var y [3]float64
		for j, z := range zetas {
			y[j] = cliqueHeapPerRank(t, p, int(z))
		}
		// Least squares over the three points.
		mz, my := (zetas[0]+zetas[1]+zetas[2])/3, (y[0]+y[1]+y[2])/3
		var sxy, sxx float64
		for j, z := range zetas {
			sxy += (z - mz) * (y[j] - my)
			sxx += (z - mz) * (z - mz)
		}
		b := sxy / sxx
		a := my - b*mz
		t.Logf("p=%d: %.0f, %.0f, %.0f B per rank at ζ = 1, 8, 64: a = %.0f B, b = %.1f B per peer", p, y[0], y[1], y[2], a, b)
		if b > 114 {
			t.Errorf("p=%d: %.1f bytes per peer, want <= 114", p, b)
		}
		if step := y[1] - y[0]; step > 620 {
			t.Errorf("p=%d: ζ = 1 to 8 adds %.0f B per rank, want <= 620", p, step)
		}
		if i == 0 {
			a0 = a
		} else if d := a/a0 - 1; d > 0.05 || d < -0.05 {
			t.Errorf("a rank's fixed bytes move with p: %.0f at p=%d, %.0f at p=%d (%+.1f %%)", a0, procs[0], a, p, 100*d)
		}
	}
}
