package armci

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestZeroLengthTransfers(t *testing.T) {
	_, err := Run(atCfg(2), func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 64)
		if rt.Rank != 0 {
			return
		}
		local := rt.LocalAlloc(th, 64)
		rt.Space().CopyIn(local, []byte{0xAA})
		// Zero-length operations are legal no-ops that still synchronize.
		rt.Put(th, local, a.At(1), 0)
		rt.Get(th, a.At(1), local, 0)
		rt.Fence(th, 1)
		// The one real byte was never transferred.
		if b := rt.W.M.Space(1).Bytes(a.At(1).Addr, 1); b[0] != 0 {
			t.Errorf("zero-length put moved data: %d", b[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSeedChangesTimingNotResults(t *testing.T) {
	run := func(seed uint64) (sim.Time, int64) {
		cfg := atCfg(4)
		cfg.Seed = seed
		var end sim.Time
		var final int64
		_, err := Run(cfg, func(th *sim.Thread, rt *Runtime) {
			a := rt.Malloc(th, 8)
			for i := 0; i < 10; i++ {
				rt.FetchAdd(th, a.At(0), 1)
			}
			rt.Barrier(th)
			if rt.Rank == 0 {
				final = rt.Space().GetInt64(a.At(0).Addr)
			}
			end = th.Now()
		})
		if err != nil {
			t.Fatal(err)
		}
		return end, final
	}
	t1, v1 := run(1)
	t2, v2 := run(2)
	if v1 != 40 || v2 != 40 {
		t.Fatalf("results differ with seed: %d, %d", v1, v2)
	}
	if t1 == t2 {
		t.Fatal("different seeds produced identical timing (jitter not seeded)")
	}
	// Same seed replays exactly.
	t1b, _ := run(1)
	if t1b != t1 {
		t.Fatal("same seed diverged")
	}
}

func TestFenceOnCleanRankIsCheap(t *testing.T) {
	_, err := Run(atCfg(2), func(th *sim.Thread, rt *Runtime) {
		if rt.Rank != 0 {
			return
		}
		t0 := th.Now()
		rt.Fence(th, 1) // nothing outstanding: no flush round trip
		if th.Now()-t0 > sim.Microsecond {
			t.Errorf("clean fence took %s", sim.FormatTime(th.Now()-t0))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGetFromSelfThroughLoopback(t *testing.T) {
	w, err := Run(atCfg(2), func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 256)
		if rt.Rank != 0 {
			return
		}
		rt.Space().CopyIn(a.At(0).Addr, pattern(64, 42))
		local := rt.LocalAlloc(th, 256)
		rt.Get(th, a.At(0), local, 64) // self-target: MU loopback
		got := make([]byte, 64)
		rt.Space().CopyOut(local, got)
		want := pattern(64, 42)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("byte %d: %d != %d", i, got[i], want[i])
				break
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Runtimes[0].Stats.Get("get.rdma") != 1 {
		t.Fatal("self-get should still be RDMA")
	}
}

func TestRmwToSelf(t *testing.T) {
	// A rank fetch-adding its own counter still goes through the AM
	// protocol (no shortcut), serviced by its own async thread.
	_, err := Run(atCfg(2), func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 8)
		if rt.Rank != 0 {
			return
		}
		for i := 0; i < 5; i++ {
			if prev := rt.FetchAdd(th, a.At(0), 2); prev != int64(2*i) {
				t.Errorf("prev = %d, want %d", prev, 2*i)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRmwToSelfDefaultMode(t *testing.T) {
	// Without an async thread, the rank's own blocking wait must service
	// its own rmw (the main thread drives its context inside WaitLocal).
	cfg := Config{Procs: 2, ProcsPerNode: 2}
	_, err := Run(cfg, func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 8)
		if rt.Rank != 0 {
			return
		}
		if prev := rt.FetchAdd(th, a.At(0), 1); prev != 0 {
			t.Errorf("prev = %d", prev)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	// Invalid configurations surface as descriptive errors from Run, not
	// panics from deep inside withDefaults.
	if _, err := Run(Config{}, func(th *sim.Thread, rt *Runtime) {}); err == nil {
		t.Fatal("expected error for zero procs")
	} else if !strings.Contains(err.Error(), "Procs") {
		t.Fatalf("zero-procs error %q does not name the field", err)
	}
	cfg := atCfg(2)
	cfg.Contexts = 3
	if _, err := Run(cfg, func(th *sim.Thread, rt *Runtime) {}); err == nil {
		t.Fatal("expected error for Contexts=3")
	} else if !strings.Contains(err.Error(), "Contexts") {
		t.Fatalf("contexts error %q does not name the field", err)
	}
	// The single-queue engine's old spelling is gone: every world runs on
	// lanes, and a negative worker count is an error, not a mode.
	cfg = atCfg(2)
	cfg.Shards = -1
	if _, err := Run(cfg, func(th *sim.Thread, rt *Runtime) {}); err == nil {
		t.Fatal("expected error for Shards=-1")
	} else if !strings.Contains(err.Error(), "Shards") {
		t.Fatalf("shards error %q does not name the field", err)
	}
}

func TestSpaceModelEquations(t *testing.T) {
	// §III.B: M_e = ζ·α·ρ endpoint bytes, M_r = τ·γ + σ·ζ·γ region bytes.
	const procs = 4
	const sigma = 3 // collective allocations (active global structures)
	const tau = 2   // local communication buffers
	w, err := Run(atCfg(procs), func(th *sim.Thread, rt *Runtime) {
		for i := 0; i < sigma; i++ {
			rt.Malloc(th, 1024)
		}
		for i := 0; i < tau; i++ {
			rt.LocalAlloc(th, 512)
		}
		rt.Barrier(th)
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := &w.Runtimes[0]
	p := w.Cfg.Params
	// Local registrations: sigma collective + tau local buffers, each
	// gamma bytes of metadata.
	if got, want := rt.C.RegionBytes, (sigma+tau)*p.MemRegionBytes; got != want {
		t.Fatalf("local region bytes = %d, want (σ+τ)γ = %d", got, want)
	}
	// Remote cache: sigma entries per peer (σ·ζ·γ of Eq 5).
	if got, want := rt.regions.total, sigma*(procs-1); got != want {
		t.Fatalf("cached remote regions = %d, want σ·ζ = %d", got, want)
	}
	// Endpoint accounting matches α per created endpoint.
	if rt.C.EndpointBytes != rt.C.EndpointsCreated*p.EndpointBytes {
		t.Fatalf("endpoint bytes %d != created %d x α", rt.C.EndpointBytes, rt.C.EndpointsCreated)
	}
}

func TestMustRunPanicsOnDeadlock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustRun(atCfg(2), func(th *sim.Thread, rt *Runtime) {
		rt.Barrier(th)
		if rt.Rank == 0 {
			rt.Barrier(th) // rank 1 never joins: deadlock
		}
	})
}
