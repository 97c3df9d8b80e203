package armci

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
)

func TestMutexGrantsFIFO(t *testing.T) {
	const procs = 4
	var order []int
	_, err := Run(atCfg(procs), func(th *sim.Thread, rt *Runtime) {
		rt.CreateMutexes(th, 1)
		if rt.Rank == 0 {
			// Owner holds the lock while the others queue up in rank
			// order (staggered arrivals), then releases.
			rt.Lock(th, 0)
			th.Sleep(500 * sim.Microsecond)
			rt.Unlock(th, 0)
		} else {
			th.Sleep(sim.Time(rt.Rank) * 50 * sim.Microsecond)
			rt.Lock(th, 0)
			order = append(order, rt.Rank)
			th.Sleep(10 * sim.Microsecond)
			rt.Unlock(th, 0)
		}
		rt.Barrier(th)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != procs-1 {
		t.Fatalf("grants = %v", order)
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("grants out of FIFO order: %v", order)
		}
	}
}

func TestMutexDistributionAcrossOwners(t *testing.T) {
	const procs = 3
	_, err := Run(atCfg(procs), func(th *sim.Thread, rt *Runtime) {
		rt.CreateMutexes(th, 7) // mutex i lives on rank i%3
		for i := 0; i < 7; i++ {
			if i%procs == rt.Rank {
				if rt.mutexes[i] == nil {
					t.Errorf("rank %d missing mutex %d", rt.Rank, i)
				}
			} else if rt.mutexes[i] != nil {
				t.Errorf("rank %d wrongly owns mutex %d", rt.Rank, i)
			}
		}
		// Exercise a non-rank-0 owner.
		rt.Lock(th, 1)
		rt.Unlock(th, 1)
		rt.Barrier(th)
		rt.DestroyMutexes(th)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFenceAckAccounting(t *testing.T) {
	w, err := Run(atCfg(2), func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 8192)
		if rt.Rank != 0 {
			return
		}
		local := rt.LocalAlloc(th, 8192)
		// Accumulates are ack-tracked; the fence must wait for them.
		for i := 0; i < 5; i++ {
			rt.NbAcc(th, local, a.At(1), 1024, 1.0)
		}
		if rt.peers.at(rt.peers.find(1)).ams == 0 {
			t.Error("no outstanding acks after NbAcc burst")
		}
		rt.Fence(th, 1)
		if ams := rt.peers.at(rt.peers.find(1)).ams; ams != 0 {
			t.Errorf("fence left %d unacked AMs", ams)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Runtimes[0].Stats.Get("fence.ack") == 0 {
		t.Fatal("fence did not wait on acks")
	}
}

func TestBarrierServicesRemoteRequestsWhileWaiting(t *testing.T) {
	// Default mode, no async thread: rank 0 sits in a barrier while rank
	// 1 performs rmws against it. The barrier wait must drive rank 0's
	// progress engine or this deadlocks.
	cfg := Config{Procs: 2, ProcsPerNode: 2}
	_, err := Run(cfg, func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 8)
		if rt.Rank == 1 {
			for i := 0; i < 20; i++ {
				rt.FetchAdd(th, a.At(0), 1)
			}
		}
		rt.Barrier(th)
		if rt.Rank == 0 {
			if got := rt.Space().GetInt64(a.At(0).Addr); got != 20 {
				t.Errorf("counter = %d, want 20", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllocKeyResolvesStructures(t *testing.T) {
	_, err := Run(atCfg(2), func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 1024)
		b := rt.Malloc(th, 1024)
		if rt.Rank != 0 {
			return
		}
		if k := rt.allocKey(a.At(1)); k != a.ID {
			t.Errorf("allocKey(a) = %d, want %d", k, a.ID)
		}
		if k := rt.allocKey(b.At(1).Add(1000)); k != b.ID {
			t.Errorf("allocKey(b+1000) = %d, want %d", k, b.ID)
		}
		if k := rt.allocKey(GlobalPtr{Rank: 1, Addr: 4}); k != -1 {
			t.Errorf("allocKey(unmapped) = %d, want -1", k)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTrackAdoptsExplicitHandles(t *testing.T) {
	_, err := Run(atCfg(2), func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 8192)
		if rt.Rank != 0 {
			return
		}
		local := rt.LocalAlloc(th, 8192)
		h := rt.NbAcc(th, local, a.At(1), 4096, 1.0)
		rt.Track(h)
		rt.WaitAll(th)
		if !h.Done() {
			t.Error("tracked handle not retired by WaitAll")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMallocPreloadsRegionCache(t *testing.T) {
	w, err := Run(atCfg(4), func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 2048)
		if rt.Rank != 0 {
			return
		}
		local := rt.LocalAlloc(th, 2048)
		// Every first get must be a cache hit: metadata arrived with the
		// collective exchange.
		for r := 1; r < rt.Procs(); r++ {
			rt.Get(th, a.At(r), local, 64)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.Runtimes[0].Stats
	if st.Get("regioncache.miss") != 0 {
		t.Fatalf("misses = %d after collective preload", st.Get("regioncache.miss"))
	}
	if st.Get("regioncache.hit") < 3 {
		t.Fatalf("hits = %d", st.Get("regioncache.hit"))
	}
}

func TestRegionCacheMissPathUnderTinyCap(t *testing.T) {
	cfg := atCfg(4)
	cfg.RegionCacheCap = 1 // preload evicts immediately; misses refill
	w, err := Run(cfg, func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 2048)
		if rt.Rank != 0 {
			return
		}
		local := rt.LocalAlloc(th, 2048)
		for pass := 0; pass < 2; pass++ {
			for r := 1; r < rt.Procs(); r++ {
				rt.Get(th, a.At(r), local, 64)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.Runtimes[0].Stats
	if st.Get("regioncache.miss") == 0 {
		t.Fatal("expected AM-served misses at capacity 1")
	}
	if st.Get("get.rdma") != 6 {
		t.Fatalf("get.rdma = %d, want 6 (misses refill, never fall back)", st.Get("get.rdma"))
	}
}

func TestAggregateStats(t *testing.T) {
	w, err := Run(atCfg(3), func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 64)
		rt.FetchAdd(th, a.At(0), 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	agg := w.AggregateStats()
	if agg.Get("rmw") != 3 {
		t.Fatalf("aggregate rmw = %d, want 3", agg.Get("rmw"))
	}
	if agg.Get("malloc") != 3 {
		t.Fatalf("aggregate malloc = %d, want 3", agg.Get("malloc"))
	}
}

func TestDeterministicReplayWithAsyncThread(t *testing.T) {
	run := func() (sim.Time, uint64) {
		var end sim.Time
		w, err := Run(atCfg(6), func(th *sim.Thread, rt *Runtime) {
			a := rt.Malloc(th, 4096)
			local := rt.LocalAlloc(th, 4096)
			for i := 0; i < 8; i++ {
				rt.FetchAdd(th, a.At(0), 1)
				rt.NbAcc(th, local, a.At((rt.Rank+i)%rt.Procs()), 512, 1.0)
				rt.Get(th, a.At((rt.Rank+1)%rt.Procs()), local, 256)
			}
			rt.Barrier(th)
			end = th.Now()
		})
		if err != nil {
			t.Fatal(err)
		}
		return end, w.K.EventsFired()
	}
	t1, e1 := run()
	t2, e2 := run()
	if t1 != t2 || e1 != e2 {
		t.Fatalf("AT replay diverged: %d/%d, %d/%d events", t1, t2, e1, e2)
	}
}

func TestNaiveModeTracksUnknownRegions(t *testing.T) {
	// Writes to raw (non-Malloc) remote memory must still be fenced
	// before conflicting reads, in both modes.
	for _, mode := range []ConsistencyMode{ConsistencyNaive, ConsistencyPerRegion} {
		cfg := atCfg(2)
		cfg.Consistency = mode
		w, err := Run(cfg, func(th *sim.Thread, rt *Runtime) {
			// Rank 1 allocates raw local memory, shares the address via a
			// Malloc'd mailbox.
			mail := rt.Malloc(th, 8)
			if rt.Rank == 1 {
				raw := rt.LocalAlloc(th, 1<<20)
				rt.Space().SetInt64(mail.At(1).Addr, int64(raw))
			}
			rt.Barrier(th)
			if rt.Rank != 0 {
				return
			}
			local := rt.LocalAlloc(th, 1<<20)
			rt.Get(th, mail.At(1), local, 8)
			raw := GlobalPtr{Rank: 1, Addr: mem.Addr(rt.Space().GetInt64(local))}
			n := 1 << 20
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = 0x7E
			}
			rt.Space().CopyIn(local, buf)
			rt.Put(th, local, raw, n)
			back := rt.LocalAlloc(th, n)
			rt.Get(th, raw, back, n) // must fence first
			if rt.Space().Bytes(back+mem.Addr(n-1), 1)[0] != 0x7E {
				t.Error("stale read of raw region")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if w.Runtimes[0].Stats.Get("conflict.fence") == 0 {
			t.Fatalf("mode %v: no fence on raw-region conflict", mode)
		}
	}
}

func TestTraceRecordsProtocolDecisions(t *testing.T) {
	cfg := atCfg(2)
	cfg.Obs = obs.New()
	_, err := Run(cfg, func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 4096)
		if rt.Rank != 0 {
			return
		}
		local := rt.LocalAlloc(th, 4096)
		rt.Put(th, local, a.At(1), 512)
		rt.Get(th, a.At(1), local, 512)
		rt.FetchAdd(th, a.At(1), 1)
		rt.Fence(th, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	byCat := func(cat string) []obs.Event {
		return cfg.Obs.Events(obs.TrackRank, func(e obs.Event) bool { return e.Cat == cat })
	}
	if rdma := byCat("rdma"); len(rdma) < 2 {
		t.Fatalf("rdma trace events = %d, want >= 2", len(rdma))
	}
	if len(byCat("am")) == 0 {
		t.Fatal("no AM events (rmw missing)")
	}
	if len(byCat("fence")) == 0 {
		t.Fatal("no fence events")
	}
}
