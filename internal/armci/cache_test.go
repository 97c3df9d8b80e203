package armci

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// TestFreePurgesRegionCache: collectively freeing an allocation and
// re-Mallocing at the same base must not leave stale RDMA descriptors —
// the second allocation's traffic has to resolve fresh metadata and land
// in the new block.
func TestFreePurgesRegionCache(t *testing.T) {
	const procs = 2
	const n = 1024
	_, err := Run(atCfg(procs), func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, n)
		baseA := a.At(1).Addr
		if rt.Rank == 0 {
			// Warm the cache with a real transfer to rank 1's block.
			local := rt.LocalAlloc(th, n)
			rt.Put(th, local, a.At(1), n)
			rt.Fence(th, 1)
			if !rt.cache().lookup(rt.peers.find(1), baseA, n) {
				t.Error("descriptor for rank 1 not cached after put")
			}
		}
		rt.Barrier(th)
		rt.Free(th, a)
		if rt.Rank == 0 && rt.cache().lookup(rt.peers.find(1), baseA, n) {
			t.Error("stale descriptor for freed block survived Free")
		}

		// The allocator reuses the freed space, so b sits at a's base; a
		// stale cached descriptor would now cover the wrong registration.
		b := rt.Malloc(th, n)
		if b.At(1).Addr != baseA {
			t.Fatalf("re-Malloc moved: %#x, want reuse of %#x", uint64(b.At(1).Addr), uint64(baseA))
		}
		if rt.Rank == 0 {
			local := rt.LocalAlloc(th, n)
			pat := make([]byte, n)
			for i := range pat {
				pat[i] = byte(i * 13)
			}
			rt.Space().CopyIn(local, pat)
			rt.Put(th, local, b.At(1), n)
			rt.Fence(th, 1)
		}
		rt.Barrier(th)
		if rt.Rank == 1 {
			got := rt.Space().Bytes(b.At(1).Addr, n)
			for i := range got {
				if got[i] != byte(i*13) {
					t.Fatalf("byte %d = %#x after re-Malloc put, want %#x", i, got[i], byte(i*13))
				}
			}
		}
		rt.Barrier(th)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInsertExchangePartialRegistration: ranks whose registration failed
// must not be seeded into the cache (their traffic needs the fallback
// protocols), while registered peers still land — under capacity and
// through the evicting replay.
func TestInsertExchangePartialRegistration(t *testing.T) {
	const procs = 6
	addrs := make([]mem.Addr, procs)
	registered := make([]bool, procs)
	for r := range addrs {
		addrs[r] = mem.Addr(0x1000 + r*0x100)
		registered[r] = r%2 == 0 // odd ranks failed to register
	}

	x := newExchange(addrs, registered, 0x80)
	rc := newTestCache(64, 1)
	rc.insertExchange(x)
	// Self (rank 1, unregistered anyway) and odd ranks must be absent.
	if got, want := rc.total, 3; got != want { // ranks 0, 2, 4
		t.Fatalf("cached entries = %d, want %d", got, want)
	}
	for r := 0; r < procs; r++ {
		hit := rc.lookup(rc.at(r), addrs[r], 0x80)
		want := registered[r] && r != 1
		if hit != want {
			t.Errorf("rank %d cached = %v, want %v", r, hit, want)
		}
	}

	// Capacity forces insertExchange through the evicting replay.
	small := newTestCache(2, 1)
	small.insertExchange(x)
	if small.total != 2 {
		t.Fatalf("capped cache entries = %d, want 2", small.total)
	}
	if small.Evicted == 0 {
		t.Error("capped exchange evicted nothing")
	}

	// A pre-populated (explicit) bucket must survive an exchange and take
	// its seeded entry explicitly.
	pre := newTestCache(64, 1)
	pre.insert(pre.at(2), 0x9000, 0x40)
	pre.insertExchange(x)
	if !pre.lookup(pre.at(2), 0x9000, 0x40) {
		t.Error("pre-existing entry lost in exchange")
	}
	if !pre.lookup(pre.at(2), addrs[2], 0x80) {
		t.Error("exchanged entry missing from pre-populated bucket")
	}
}
