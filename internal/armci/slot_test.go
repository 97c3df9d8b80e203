package armci

import (
	"bytes"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
)

// TestLateAckAfterSlotRelease: a blocking put by the active-message
// fallback is locally complete at issue, so Put returns, and releases its
// operation slot, long before the target's ack arrives. Each put here is
// followed at once by a fallback get from another structure (no fence
// between them), which takes the released slot. The ack must find nothing
// to finish: a pending request that still pointed at the put's completion
// would finish the get before its reply landed (the bytes check below), or,
// under the race detector, where released slots are retired, panic.
func TestLateAckAfterSlotRelease(t *testing.T) {
	const n = 64
	cfg := Config{Procs: 2, ProcsPerNode: 1, AsyncThread: true, MaxRegions: -1}
	w, err := Run(cfg, func(th *sim.Thread, rt *Runtime) {
		dst := rt.Malloc(th, n)
		src := rt.Malloc(th, 8*n)
		if rt.Rank == 1 {
			rt.Space().CopyIn(src.At(1).Addr, pattern(8*n, 3))
		}
		rt.Barrier(th)
		if rt.Rank != 0 {
			return
		}
		local := rt.LocalAlloc(th, n)
		back := rt.LocalAlloc(th, n)
		for i := 0; i < 8; i++ {
			rt.Put(th, local, dst.At(1), n)
			off := i * n
			rt.Get(th, src.At(1).Add(off), back, n)
			want := pattern(8*n, 3)[off : off+n]
			if got := rt.Space().Bytes(back, n); string(got) != string(want) {
				t.Fatalf("get %d returned before its reply landed", i)
			}
		}
		rt.AllFence(th)
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.AggregateStats()
	if st.Get("put.am") != 8 || st.Get("get.fallback") != 8 {
		t.Fatalf("put.am %d, get.fallback %d: want every transfer on the fallback path",
			st.Get("put.am"), st.Get("get.fallback"))
	}
}

// TestStaleHandleAfterSlotReuse: a Handle is its slot and the slot's
// generation at issue. Once h1 is waited, h2 takes the same slot (on a
// healthy run without the race detector; with it, the slot is retired and
// h2 gets another), and h1 still reads as the finished operation it was:
// Wait returns at once, Done is true, while h2 is still pending.
func TestStaleHandleAfterSlotReuse(t *testing.T) {
	_, err := Run(atCfg(2), func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 8192)
		if rt.Rank != 0 {
			return
		}
		local := rt.LocalAlloc(th, 8192)
		h1 := rt.NbGet(th, a.At(1), local, 4096)
		h1.Wait(th)
		h2 := rt.NbGet(th, a.At(1), local+4096, 4096)
		if reused := h1.s == h2.s; reused == raceEnabled {
			t.Errorf("h2 reused h1's slot: %v, want %v", reused, !raceEnabled)
		}
		at := th.Now()
		h1.Wait(th)
		if th.Now() != at {
			t.Error("Wait on a stale handle advanced time")
		}
		if !h1.Done() {
			t.Error("a stale handle reads as pending")
		}
		if h2.Done() {
			t.Error("h2 done at issue: the test would not tell the two apart")
		}
		h2.Wait(th)
		if !h2.Done() {
			t.Error("h2 not done after Wait")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSlotRecyclingUnderDuplication: with every message delivered twice,
// operation slots are released and reused as on a healthy run, and a
// duplicate that arrives after its operation is over finishes nothing.
// Each round puts a pattern of its own, fences, and gets it back into a
// buffer of its own through a non-blocking get, whose slot last served an
// operation whose duplicate landings and acks may still be arriving: when
// Wait returns, the get's own bytes must be there (a late landing that
// finished the reused slot would return it early), and its Handle reads
// as done. A strided get rides along. Under the race detector released
// slots are retired instead of reused, so a late untagged finish panics.
func TestSlotRecyclingUnderDuplication(t *testing.T) {
	plan := fault.NewPlan(1).Duplicate(fault.Any, fault.Any, 0, sim.Second, 1)
	w, err := ftWorld(t, ftCfg(plan), func(th *sim.Thread, rt *Runtime, local mem.Addr, remote GlobalPtr) {
		const rounds = 8
		back := rt.LocalAlloc(th, rounds*ftBytes)
		seen := map[*opSlot]bool{}
		reused := false
		for i := 0; i < rounds; i++ {
			want := pattern(ftBytes, byte(20+i))
			rt.Space().CopyIn(local, want)
			rt.Put(th, local, remote, ftBytes)
			rt.Fence(th, remote.Rank)
			into := back + mem.Addr(i*ftBytes)
			h := rt.NbGet(th, remote, into, ftBytes)
			reused = reused || seen[h.s]
			seen[h.s] = true
			h.Wait(th)
			if got := rt.Space().Bytes(into, ftBytes); !bytes.Equal(got, want) {
				t.Fatalf("get %d returned before its own reply landed", i)
			}
			rt.NbGetS(th, remote, []int{64}, local, []int{64}, []int{64, 2}).Wait(th)
			if !h.Done() {
				t.Fatalf("get %d reads as pending after Wait", i)
			}
		}
		if reused == raceEnabled {
			t.Errorf("a get reused a released slot under an injector: %v, want %v", reused, !raceEnabled)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := w.Faults.Duplicated; d == 0 {
		t.Fatal("no message was duplicated: the test sees nothing")
	}
}
