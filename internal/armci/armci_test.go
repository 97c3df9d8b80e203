package armci

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// atCfg is the asynchronous-thread configuration used by most
// data-correctness tests (remote service is always available).
func atCfg(procs int) Config {
	return Config{Procs: procs, ProcsPerNode: 4, AsyncThread: true}
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

func TestPutGetRoundTripRDMA(t *testing.T) {
	w, err := Run(atCfg(2), func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 4096)
		if rt.Rank != 0 {
			return
		}
		local := rt.LocalAlloc(th, 4096)
		want := pattern(1024, 3)
		rt.Space().CopyIn(local, want)
		rt.Put(th, local, a.At(1), 1024)
		rt.Fence(th, 1)

		back := rt.LocalAlloc(th, 4096)
		rt.Get(th, a.At(1), back, 1024)
		got := make([]byte, 1024)
		rt.Space().CopyOut(back, got)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("byte %d: got %d want %d", i, got[i], want[i])
				break
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rt0 := &w.Runtimes[0]
	if rt0.Stats.Get("put.rdma") != 1 || rt0.Stats.Get("get.rdma") != 1 {
		t.Fatalf("expected RDMA path: put.rdma=%d get.rdma=%d put.am=%d get.fallback=%d",
			rt0.Stats.Get("put.rdma"), rt0.Stats.Get("get.rdma"),
			rt0.Stats.Get("put.am"), rt0.Stats.Get("get.fallback"))
	}
}

func TestGetLatencyThroughFullStack(t *testing.T) {
	var lat sim.Time
	cfg := atCfg(2)
	cfg.ProcsPerNode = 1 // adjacent nodes, as in Fig 3
	_, err := Run(cfg, func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 4096)
		if rt.Rank != 0 {
			return
		}
		local := rt.LocalAlloc(th, 4096)
		rt.Get(th, a.At(1), local, 16) // warm caches (region query, endpoint)
		start := th.Now()
		rt.Get(th, a.At(1), local, 16)
		lat = th.Now() - start
	})
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig 3: 2.89 us adjacent-node get. Allow jitter and the ARMCI
	// software above PAMI.
	if lat < 2700 || lat > 3200 {
		t.Fatalf("warm get(16B) = %dns through ARMCI, want ~2890ns", lat)
	}
}

func TestFallbackGetWhenRegionMissing(t *testing.T) {
	cfg := atCfg(2)
	cfg.MaxRegions = 1 // only the first Malloc registers
	w, err := Run(cfg, func(th *sim.Thread, rt *Runtime) {
		_ = rt.Malloc(th, 512)   // consumes the region budget
		b := rt.Malloc(th, 4096) // unregistered everywhere
		if rt.Rank != 0 {
			if rt.Rank == 1 {
				rt.Space().CopyIn(b.At(1).Addr, pattern(256, 9))
			}
			rt.Barrier(th)
			return
		}
		rt.Barrier(th)
		local := rt.Space().Alloc(4096) // unregistered local buffer
		rt.Get(th, b.At(1), local, 256)
		got := make([]byte, 256)
		rt.Space().CopyOut(local, got)
		want := pattern(256, 9)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("byte %d: got %d want %d", i, got[i], want[i])
				break
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Runtimes[0].Stats.Get("get.fallback") == 0 {
		t.Fatal("expected the fallback protocol to carry the get")
	}
	if w.Runtimes[0].Stats.Get("get.rdma") != 0 {
		t.Fatal("RDMA path taken without regions")
	}
}

func TestFallbackPutWhenRegionMissing(t *testing.T) {
	cfg := atCfg(2)
	cfg.MaxRegions = 1
	w, err := Run(cfg, func(th *sim.Thread, rt *Runtime) {
		_ = rt.Malloc(th, 512)
		b := rt.Malloc(th, 4096)
		if rt.Rank != 0 {
			return
		}
		local := rt.Space().Alloc(4096)
		rt.Space().CopyIn(local, pattern(300, 5))
		rt.Put(th, local, b.At(1), 300)
		rt.Fence(th, 1)
		got := make([]byte, 300)
		rt.W.M.Space(1).CopyOut(b.At(1).Addr, got)
		want := pattern(300, 5)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("byte %d: got %d want %d", i, got[i], want[i])
				break
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Runtimes[0].Stats.Get("put.am") == 0 {
		t.Fatal("expected AM put fallback")
	}
}

func TestAccumulateNumerics(t *testing.T) {
	const procs = 4
	const elems = 64
	w, err := Run(atCfg(procs), func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, elems*8)
		local := rt.LocalAlloc(th, elems*8)
		vals := make([]float64, elems)
		for i := range vals {
			vals[i] = float64(rt.Rank + 1)
		}
		rt.Space().WriteFloat64s(local, vals)
		// Everyone accumulates 2x their vector into rank 0's block.
		rt.Acc(th, local, a.At(0), elems*8, 2.0)
		rt.Barrier(th)
		if rt.Rank == 0 {
			rt.Fence(th, 0)
			got := make([]float64, elems)
			rt.Space().ReadFloat64s(a.At(0).Addr, got)
			want := 2.0 * float64(1+2+3+4)
			for i, v := range got {
				if v != want {
					t.Errorf("elem %d: got %v want %v", i, v, want)
					break
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Runtimes[1].Stats.Get("acc") != 1 {
		t.Fatal("acc not counted")
	}
}

func TestStridedRoundTripRDMAPath(t *testing.T) {
	// 2-D patch with chunks >= TypedThreshold: chunk-listing RDMA.
	const rows, cols, ld = 6, 256, 512
	w, err := Run(atCfg(2), func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, rows*ld*2)
		if rt.Rank != 0 {
			return
		}
		local := rt.LocalAlloc(th, rows*cols)
		want := pattern(rows*cols, 11)
		rt.Space().CopyIn(local, want)
		counts := []int{cols, rows}
		rt.PutS(th, local, []int{cols}, a.At(1), []int{ld}, counts)
		rt.Fence(th, 1)

		back := rt.LocalAlloc(th, rows*cols)
		rt.GetS(th, a.At(1), []int{ld}, back, []int{cols}, counts)
		got := make([]byte, rows*cols)
		rt.Space().CopyOut(back, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("byte %d: got %d want %d", i, got[i], want[i])
			}
		}
		// Rows land at the right leading-dimension offsets, and the gaps
		// between them stay zero.
		tgt := rt.W.M.Space(1)
		base := a.At(1).Addr
		for r := 0; r < rows; r++ {
			row := tgt.Bytes(base+mem.Addr(r*ld), cols)
			for i := range row {
				if row[i] != want[r*cols+i] {
					t.Fatalf("row %d byte %d mismatch", r, i)
				}
			}
			gap := tgt.Bytes(base+mem.Addr(r*ld+cols), ld-cols)
			for i, v := range gap {
				if v != 0 {
					t.Fatalf("row %d gap byte %d dirtied: %d", r, i, v)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Runtimes[0].Stats.Get("strided.chunks") != 2*rows {
		t.Fatalf("strided.chunks = %d, want %d", w.Runtimes[0].Stats.Get("strided.chunks"), 2*rows)
	}
	if w.Runtimes[0].Stats.Get("strided.typed") != 0 {
		t.Fatal("typed path taken for wide chunks")
	}
}

func TestStridedTypedPathForTallSkinny(t *testing.T) {
	// 16-byte chunks: below TypedThreshold, so the packed path is used.
	const rows, cols, ld = 32, 16, 128
	w, err := Run(atCfg(2), func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, rows*ld)
		if rt.Rank != 0 {
			return
		}
		local := rt.LocalAlloc(th, rows*cols)
		want := pattern(rows*cols, 13)
		rt.Space().CopyIn(local, want)
		counts := []int{cols, rows}
		rt.PutS(th, local, []int{cols}, a.At(1), []int{ld}, counts)
		rt.Fence(th, 1)
		back := rt.LocalAlloc(th, rows*cols)
		rt.GetS(th, a.At(1), []int{ld}, back, []int{cols}, counts)
		got := make([]byte, rows*cols)
		rt.Space().CopyOut(back, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("byte %d: got %d want %d", i, got[i], want[i])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Runtimes[0].Stats.Get("strided.typed") != 2 {
		t.Fatalf("strided.typed = %d, want 2", w.Runtimes[0].Stats.Get("strided.typed"))
	}
}

func TestStridedAccumulate(t *testing.T) {
	const rows, elems, ld = 4, 8, 256 // 64-byte chunks of 8 float64s
	_, err := Run(atCfg(3), func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, rows*ld)
		local := rt.LocalAlloc(th, rows*elems*8)
		vals := make([]float64, rows*elems)
		for i := range vals {
			vals[i] = float64(rt.Rank + 1)
		}
		rt.Space().WriteFloat64s(local, vals)
		counts := []int{elems * 8, rows}
		rt.AccS(th, local, []int{elems * 8}, a.At(0), []int{ld}, counts, 1.0)
		rt.Barrier(th)
		if rt.Rank == 0 {
			rt.Fence(th, 0)
			for r := 0; r < rows; r++ {
				got := make([]float64, elems)
				rt.Space().ReadFloat64s(a.At(0).Addr+mem.Addr(r*ld), got)
				for i, v := range got {
					if v != 6 { // 1+2+3
						t.Errorf("row %d elem %d: got %v want 6", r, i, v)
					}
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVectorOps(t *testing.T) {
	_, err := Run(atCfg(2), func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 4096)
		if rt.Rank != 0 {
			return
		}
		local := rt.LocalAlloc(th, 4096)
		want := pattern(96, 21)
		rt.Space().CopyIn(local, want)
		segs := []VecSeg{
			{Local: local, Remote: a.At(1).Addr, N: 32},
			{Local: local + 32, Remote: a.At(1).Addr + 512, N: 32},
			{Local: local + 64, Remote: a.At(1).Addr + 1024, N: 32},
		}
		rt.NbPutV(th, 1, segs).Wait(th)
		rt.Fence(th, 1)
		back := rt.LocalAlloc(th, 4096)
		backSegs := []VecSeg{
			{Local: back, Remote: a.At(1).Addr, N: 32},
			{Local: back + 32, Remote: a.At(1).Addr + 512, N: 32},
			{Local: back + 64, Remote: a.At(1).Addr + 1024, N: 32},
		}
		rt.NbGetV(th, 1, backSegs).Wait(th)
		got := make([]byte, 96)
		rt.Space().CopyOut(back, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("byte %d: got %d want %d", i, got[i], want[i])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFetchAddTotalAcrossRanks(t *testing.T) {
	const procs = 6
	const each = 10
	prevs := make([]int64, procs)
	w, err := Run(atCfg(procs), func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 8)
		for i := 0; i < each; i++ {
			prevs[rt.Rank] += rt.FetchAdd(th, a.At(0), 1)
		}
		rt.Barrier(th)
		if rt.Rank == 0 {
			got := rt.Space().GetInt64(a.At(0).Addr)
			if got != procs*each {
				t.Errorf("counter = %d, want %d", got, procs*each)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, p := range prevs {
		sum += p
	}
	n := int64(procs * each)
	if sum != n*(n-1)/2 {
		t.Fatalf("fetch-add tickets not unique: sum=%d want %d", sum, n*(n-1)/2)
	}
	_ = w
}

func TestSwapAndCompareSwap(t *testing.T) {
	_, err := Run(atCfg(2), func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 8)
		if rt.Rank != 1 {
			return
		}
		if prev := rt.SwapLong(th, a.At(0), 42); prev != 0 {
			t.Errorf("swap prev = %d, want 0", prev)
		}
		if prev := rt.CompareSwap(th, a.At(0), 41, 99); prev != 42 {
			t.Errorf("failed cas prev = %d, want 42", prev)
		}
		if prev := rt.CompareSwap(th, a.At(0), 42, 99); prev != 42 {
			t.Errorf("cas prev = %d, want 42", prev)
		}
		local := rt.LocalAlloc(th, 8)
		rt.Get(th, a.At(0), local, 8)
		if v := rt.Space().GetInt64(local); v != 99 {
			t.Errorf("final = %d, want 99", v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLocationConsistencyGetSeesPriorPut(t *testing.T) {
	// A get after an unfenced put to the same structure must fence
	// automatically and observe the written data.
	w, err := Run(atCfg(2), func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 1<<20)
		if rt.Rank != 0 {
			return
		}
		n := 1 << 20
		local := rt.LocalAlloc(th, n)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = 0x5C
		}
		rt.Space().CopyIn(local, buf)
		rt.Put(th, local, a.At(1), n) // local completion only
		back := rt.LocalAlloc(th, n)
		rt.Get(th, a.At(1), back, n) // must fence first
		if rt.Space().Bytes(back+mem.Addr(n-1), 1)[0] != 0x5C {
			t.Error("get observed stale data: location consistency violated")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Runtimes[0].Stats.Get("conflict.fence") == 0 {
		t.Fatal("conflicting get did not fence")
	}
}

func TestPerRegionConsistencyAvoidsFalsePositives(t *testing.T) {
	// The dgemm pattern of §III.E: accumulate to structure C, then get
	// from structure A. Per-region tracking must not fence; naive must.
	run := func(mode ConsistencyMode) (fences, avoided int64) {
		cfg := atCfg(2)
		cfg.Consistency = mode
		w, err := Run(cfg, func(th *sim.Thread, rt *Runtime) {
			A := rt.Malloc(th, 4096)
			C := rt.Malloc(th, 4096)
			if rt.Rank != 0 {
				return
			}
			local := rt.LocalAlloc(th, 4096)
			rt.NbAcc(th, local, C.At(1), 256, 1.0) // outstanding write to C
			rt.Get(th, A.At(1), local, 256)        // read of A
			rt.Fence(th, 1)
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Runtimes[0].Stats.Get("conflict.fence"),
			w.Runtimes[0].Stats.Get("conflict.avoided")
	}
	nf, _ := run(ConsistencyNaive)
	pf, pa := run(ConsistencyPerRegion)
	if nf == 0 {
		t.Fatal("naive mode should fence the A-read behind the C-write")
	}
	if pf != 0 {
		t.Fatalf("per-region mode fenced %d times on independent structures", pf)
	}
	if pa == 0 {
		t.Fatal("per-region mode should count the avoided fence")
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	const procs = 5
	_, err := Run(atCfg(procs), func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 8)
		rt.CreateMutexes(th, 1)
		local := rt.LocalAlloc(th, 8)
		for i := 0; i < 4; i++ {
			rt.Lock(th, 0)
			rt.Get(th, a.At(0), local, 8)
			v := rt.Space().GetInt64(local)
			rt.Space().SetInt64(local, v+1)
			rt.Put(th, local, a.At(0), 8)
			rt.Fence(th, 0)
			rt.Unlock(th, 0)
		}
		rt.Barrier(th)
		if rt.Rank == 0 {
			if got := rt.Space().GetInt64(a.At(0).Addr); got != procs*4 {
				t.Errorf("counter = %d, want %d (lost updates)", got, procs*4)
			}
		}
		rt.DestroyMutexes(th)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRegionCacheLFUEviction(t *testing.T) {
	cfg := atCfg(4)
	cfg.RegionCacheCap = 2
	w, err := Run(cfg, func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 1024)
		if rt.Rank != 0 {
			return
		}
		local := rt.LocalAlloc(th, 1024)
		// Touch three remote targets: capacity 2 forces an eviction.
		for _, r := range []int{1, 2, 3, 1, 2, 3} {
			rt.Get(th, a.At(r), local, 64)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.Runtimes[0].Stats
	if st.Get("regioncache.evict") == 0 {
		t.Fatal("no LFU evictions at capacity 2 with 3 targets")
	}
	if st.Get("regioncache.miss") < 3 {
		t.Fatalf("misses = %d, want >= 3", st.Get("regioncache.miss"))
	}
	if st.Get("get.rdma") != 6 {
		t.Fatalf("get.rdma = %d, want 6 (misses are refilled, not fallback)", st.Get("get.rdma"))
	}
}

func TestEndpointCacheCreatesOncePerPeer(t *testing.T) {
	w, err := Run(atCfg(3), func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 256)
		if rt.Rank != 0 {
			return
		}
		local := rt.LocalAlloc(th, 256)
		for i := 0; i < 5; i++ {
			rt.Get(th, a.At(1), local, 32)
			rt.Get(th, a.At(2), local, 32)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rt0 := &w.Runtimes[0]
	// One data endpoint per peer (region metadata arrived with Malloc's
	// collective exchange, so no service endpoints were needed).
	if got := rt0.Stats.Get("ep.created"); got != 2 {
		t.Fatalf("ep.created = %d, want 2", got)
	}
	if rt0.Clique() != 2 {
		t.Fatalf("clique = %d, want 2", rt0.Clique())
	}
}

// TestCliqueCountsDistinctPeers: ζ is the number of ranks talked to. A
// get goes through the data endpoint and a fetch-and-add through the
// service endpoint; against one peer that is one rank, with the
// asynchronous thread and without it.
func TestCliqueCountsDistinctPeers(t *testing.T) {
	for _, async := range []bool{true, false} {
		w, err := Run(Config{Procs: 2, ProcsPerNode: 4, AsyncThread: async}, func(th *sim.Thread, rt *Runtime) {
			a := rt.Malloc(th, 256)
			if rt.Rank == 0 {
				local := rt.LocalAlloc(th, 256)
				rt.Get(th, a.At(1), local, 32)
				rt.FetchAdd(th, a.At(1), 1)
			}
			rt.Barrier(th)
		})
		if err != nil {
			t.Fatalf("async=%v: %v", async, err)
		}
		if got := w.Runtimes[0].Clique(); got != 1 {
			t.Errorf("async=%v: clique = %d after a get and a fetch-and-add to one peer, want 1", async, got)
		}
	}
}

// endpointCharge runs a two-rank world in which rank 0 gets from rank 1
// and fetch-adds to it, and returns rank 0's endpoint count and ζ.
func endpointCharge(t *testing.T, cfg Config) (created int64, clique int) {
	t.Helper()
	w, err := Run(cfg, func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 256)
		if rt.Rank == 0 {
			local := rt.LocalAlloc(th, 256)
			rt.Get(th, a.At(1), local, 32)
			rt.FetchAdd(th, a.At(1), 1)
		}
		rt.Barrier(th)
	})
	if err != nil {
		t.Fatal(err)
	}
	return w.Runtimes[0].Stats.Get("ep.created"), w.Runtimes[0].Clique()
}

// TestEndpointChargeDefaultMode pins what a D-mode rank (ρ = 1) pays for
// one peer reached by a get and by a fetch-and-add: the data path and the
// service path each create, and charge, the peer's context-0 endpoint, so
// ep.created reads 2 while ζ reads 1. A model change that shares the one
// endpoint between the paths (ROADMAP items 2 and 3) changes this on
// purpose.
func TestEndpointChargeDefaultMode(t *testing.T) {
	created, clique := endpointCharge(t, Config{Procs: 2, ProcsPerNode: 4, AsyncThread: false})
	if created != 2 || clique != 1 {
		t.Fatalf("D mode: ep.created = %d, clique = %d; want 2 and 1", created, clique)
	}
}

// TestEndpointChargeAsyncMode is the AT-mode counterpart (ρ = 2): the get
// creates the peer's context-0 endpoint and the fetch-and-add its service
// context's, two endpoints to one peer.
func TestEndpointChargeAsyncMode(t *testing.T) {
	created, clique := endpointCharge(t, Config{Procs: 2, ProcsPerNode: 4, AsyncThread: true})
	if created != 2 || clique != 1 {
		t.Fatalf("AT mode: ep.created = %d, clique = %d; want 2 and 1", created, clique)
	}
}

// TestEndpointCacheFirstPeerInline: the clique table's first peer costs
// no slice and no index, and every later peer is still found — the first
// among them — at the position it was added, with its status row.
func TestEndpointCacheFirstPeerInline(t *testing.T) {
	var c clique
	if c.find(0) >= 0 || c.size() != 0 {
		t.Fatal("empty table answered for rank 0")
	}
	if pos := c.record(7); pos != 0 {
		t.Fatalf("first record at position %d, want 0", pos)
	}
	if c.more != nil || c.index != nil || c.cs != nil {
		t.Fatal("one peer allocated")
	}
	if c.find(0) >= 0 {
		t.Fatal("table holding rank 7 answered for rank 0")
	}
	*c.statusAt(0, 1, 3) |= csWrite // rank 7, column 1 of 3
	// Ranks in a stride, as a process grid's column owners are, and more
	// of them than the index starts with.
	for r := 0; r < 4*chunkLen; r++ {
		if pos := c.record(16 * r); pos != r+1 {
			t.Fatalf("rank %d at position %d, want %d", 16*r, pos, r+1)
		}
	}
	for r := 0; r < 4*chunkLen; r++ {
		if pos := c.find(16 * r); pos != r+1 || int(c.at(pos).rank) != 16*r {
			t.Fatalf("find(%d) = %d", 16*r, pos)
		}
	}
	if pos := c.find(7); pos != 0 || c.record(7) != 0 {
		t.Fatalf("find(7) = %d after the table grew", pos)
	}
	if c.find(1) >= 0 {
		t.Fatal("table answered for a rank never added")
	}
	if n := c.columns(); n != 3 || len(c.cs) != 3*c.size() {
		t.Fatalf("%d status columns, %d bytes for %d records; want 3 columns", n, len(c.cs), c.size())
	}
	if c.row(0)[1] != csWrite || c.row(1)[1] != 0 {
		t.Fatal("status rows moved as the table grew")
	}
	*c.statusAt(2, 4, 3) |= csRead // a column past the rows widens every row
	if c.columns() != 5 || c.row(0)[1] != csWrite || c.row(2)[4] != csRead {
		t.Fatalf("widened to %d columns, rows %v and %v", c.columns(), c.row(0), c.row(2))
	}
}

func TestMallocFreePurgesRemoteCaches(t *testing.T) {
	_, err := Run(atCfg(2), func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 2048)
		local := rt.LocalAlloc(th, 2048)
		if rt.Rank == 0 {
			rt.Get(th, a.At(1), local, 64) // populate cache
		}
		rt.Barrier(th)
		rt.Free(th, a)
		b := rt.Malloc(th, 2048) // likely reuses the freed address
		if rt.Rank == 0 {
			rt.Get(th, b.At(1), local, 64) // must not hit stale metadata
		}
		rt.Barrier(th)
		rt.Free(th, b)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDefaultModeServicesViaMainThreadProgress(t *testing.T) {
	// D configuration: no async thread. Rank 0 polls its own progress by
	// doing its own communication; rank 1's rmw must still complete.
	cfg := Config{Procs: 2, ProcsPerNode: 2, AsyncThread: false}
	var rmwDone bool
	_, err := Run(cfg, func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 64)
		switch rt.Rank {
		case 0:
			local := rt.LocalAlloc(th, 64)
			for i := 0; i < 200; i++ {
				th.Sleep(5 * sim.Microsecond) // "compute"
				rt.Get(th, a.At(1), local, 16)
			}
		case 1:
			v := rt.FetchAdd(th, a.At(0), 7)
			if v != 0 {
				t.Errorf("prev = %d, want 0", v)
			}
			rmwDone = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rmwDone {
		t.Fatal("rmw never completed in default mode")
	}
}

func TestAsyncThreadBeatsDefaultUnderCompute(t *testing.T) {
	// The crux of Fig 9: rank 0 computes in long chunks; rank 1 measures
	// fetch-and-add latency. The async thread must win by a wide margin.
	measure := func(async bool) float64 {
		cfg := Config{Procs: 2, ProcsPerNode: 2, AsyncThread: async}
		var sumUS float64
		n := 0
		_, err := Run(cfg, func(th *sim.Thread, rt *Runtime) {
			a := rt.Malloc(th, 8)
			switch rt.Rank {
			case 0:
				// Compute in 300 us chunks, touching ARMCI in between.
				for i := 0; i < 40; i++ {
					th.Sleep(300 * sim.Microsecond)
					rt.mainCtx.Progress(th)
				}
			case 1:
				th.Sleep(50 * sim.Microsecond)
				for i := 0; i < 25; i++ {
					t0 := th.Now()
					rt.FetchAdd(th, a.At(0), 1)
					sumUS += sim.ToMicros(th.Now() - t0)
					n++
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return sumUS / float64(n)
	}
	d := measure(false)
	at := measure(true)
	if at*5 > d {
		t.Fatalf("async thread gains too little under compute: D=%.1fus AT=%.1fus", d, at)
	}
	if at > 20 { // should be a handful of microseconds
		t.Fatalf("AT rmw latency %.1fus unexpectedly high", at)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (sim.Time, uint64) {
		var end sim.Time
		w, err := Run(atCfg(4), func(th *sim.Thread, rt *Runtime) {
			a := rt.Malloc(th, 4096)
			local := rt.LocalAlloc(th, 4096)
			for i := 0; i < 10; i++ {
				tgt := (rt.Rank + 1 + i) % rt.Procs()
				rt.Put(th, local, a.At(tgt), 512)
				rt.FetchAdd(th, a.At(0), 1)
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
		t.Fatalf("replay diverged: %d/%d events %d/%d", t1, t2, e1, e2)
	}
}

func TestWaitAllAndHandleDone(t *testing.T) {
	_, err := Run(atCfg(2), func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 8192)
		if rt.Rank != 0 {
			return
		}
		local := rt.LocalAlloc(th, 8192)
		h := rt.NbGet(th, a.At(1), local, 4096)
		if h.Done() {
			t.Error("4KB get done at issue time")
		}
		h.Wait(th)
		if !h.Done() {
			t.Error("handle not done after Wait")
		}
		// Implicit-handle tracking via Track/WaitAll.
		h2 := rt.NbPut(th, local, a.At(1), 4096)
		rt.Track(h2)
		rt.WaitAll(th)
		if !h2.Done() {
			t.Error("WaitAll left an operation pending")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
