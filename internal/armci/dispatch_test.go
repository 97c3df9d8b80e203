package armci

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// TestShardHandlersServeTheAddressedRank: the protocol handlers are one
// table per world, and an entry finds the runtime it serves through the
// context it was dispatched on. With every transfer forced onto the
// active-message protocols, each rank reads, writes, locks and counts at
// three peers; a request served by any runtime but the addressed rank's —
// or a reply matched against any but the initiator's — would read the
// wrong space, write the wrong slot, miss the mutex (handleLockReq
// panics) or strand a pending request. Ranks span 12 lanes, so at 2 and 4
// lane workers the table is shared by handlers running in parallel — the
// race detector's part of the test (make race-shards).
func TestShardHandlersServeTheAddressedRank(t *testing.T) {
	const procs = 48
	peers := func(r int) [3]int { return [3]int{(r + 1) % procs, (r + 5) % procs, (r + procs/2) % procs} }
	var refNow sim.Time
	var refEvents uint64
	for _, shards := range []int{1, 2, 4} {
		cfg := Config{Procs: procs, ProcsPerNode: 4, AsyncThread: true, MaxRegions: -1, Shards: shards}
		w, err := Run(cfg, func(th *sim.Thread, rt *Runtime) {
			me := rt.Rank
			slots := rt.Malloc(th, procs*8) // slot j of rank t: written by rank j
			count := rt.Malloc(th, 8)
			rt.CreateMutexes(th, procs) // mutex t lives on rank t
			sp := rt.Space()
			sp.SetInt64(slots.At(me).Addr+mem.Addr(8*me), int64(1000+me))
			local := sp.Alloc(8)
			rt.Barrier(th)

			for _, peer := range peers(me) {
				rt.Get(th, slots.At(peer).Add(8*peer), local, 8)
				if got := sp.GetInt64(local); got != int64(1000+peer) {
					t.Errorf("shards %d: rank %d read %d from rank %d, want %d", shards, me, got, peer, 1000+peer)
				}
				rt.Lock(th, peer)
				sp.SetInt64(local, int64(2000+me))
				rt.Put(th, local, slots.At(peer).Add(8*me), 8)
				rt.Unlock(th, peer)
				rt.FetchAdd(th, count.At(peer), 1)
			}
			rt.AllFence(th)
			rt.Barrier(th)

			writers := map[int]bool{}
			for r := 0; r < procs; r++ {
				for _, peer := range peers(r) {
					if peer == me {
						writers[r] = true
					}
				}
			}
			for j := 0; j < procs; j++ {
				want := int64(0)
				switch {
				case j == me:
					want = int64(1000 + me)
				case writers[j]:
					want = int64(2000 + j)
				}
				if got := sp.GetInt64(slots.At(me).Addr + mem.Addr(8*j)); got != want {
					t.Errorf("shards %d: rank %d slot %d = %d, want %d", shards, me, j, got, want)
				}
			}
			if got := sp.GetInt64(count.At(me).Addr); got != 3 {
				t.Errorf("shards %d: rank %d counted %d fetch-and-adds, want 3", shards, me, got)
			}
			if pendingRequests(rt) != 0 || dirtyTargets(t, rt) != 0 {
				t.Errorf("shards %d: rank %d left %d requests pending, %d targets dirty",
					shards, me, pendingRequests(rt), dirtyTargets(t, rt))
			}
			rt.DestroyMutexes(th)
		})
		if err != nil {
			t.Fatalf("shards %d: %v", shards, err)
		}
		for i := range w.Runtimes {
			st := &w.Runtimes[i].Stats
			if st.Get("get.fallback") != 3 || st.Get("put.am") != 3 || st.Get("rmw") != 3 {
				t.Errorf("shards %d: rank %d counted %v, want 3 each of get.fallback, put.am, rmw",
					shards, i, *st)
			}
		}
		if shards == 1 {
			refNow, refEvents = w.K.Now(), w.K.EventsFired()
		} else if w.K.Now() != refNow || w.K.EventsFired() != refEvents {
			t.Errorf("shards %d: ended at %d after %d events; one worker: %d after %d",
				shards, w.K.Now(), w.K.EventsFired(), refNow, refEvents)
		}
	}
}
