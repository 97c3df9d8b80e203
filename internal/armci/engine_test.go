package armci

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pami"
	"repro/internal/sim"
)

// TestEngineDriversAgree serves one scripted stream of active messages —
// every protocol handler, the rmw pair, and on the chaos rows duplicates
// absorbed by amSeen and the rmw Dedup — twice: once with every engine
// step on its thread's own stack, every charge a switch (the thread
// driver, sim.Kernel.DisableShortcuts), once with the lane stepping the
// progress threads and the waiting ranks (the lane driver). Everything the
// simulated machine shows must be equal: the trace (every "run" span is an
// item's or a handler's charge, every "advance" span a pass), the metrics
// (replies sent, items and AMs served, lock and dispatch histograms), the
// events, each rank's RNG and counters and the bytes of its memory. Only
// the switches may differ: fewer with the lane driver, and none into a
// progress thread.
func TestEngineDriversAgree(t *testing.T) {
	served := countDispatches(t)
	for _, c := range []struct {
		name  string
		async bool
		ctxs  int
		chaos bool
	}{
		{"default", false, 1, false},
		{"async/1ctx", true, 1, false},
		{"async/2ctx", true, 2, false},
		{"async/1ctx/chaos", true, 1, true},
		{"async/2ctx/chaos", true, 2, true},
		{"default/chaos", false, 1, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Procs: 4, ProcsPerNode: 2, AsyncThread: c.async, Contexts: c.ctxs, MaxRegions: 2}
			if c.chaos {
				cfg.Fault = fault.NewPlan(3).Duplicate(fault.Any, fault.Any, 0, forGood, 0.3)
			}
			for id := range served {
				served[id] = 0
			}
			thread := runEngineScript(t, cfg, true)
			lane := runEngineScript(t, cfg, false)
			for id, n := range served {
				// A chaos run's end-to-end operations ask no region query,
				// and it takes no mutex.
				if n == 0 && (!c.chaos || id >= dGetReq && id < dLockReq) {
					t.Errorf("dispatch %d was never served", id)
				}
			}
			if c.chaos && thread.dups == 0 {
				t.Error("no duplicate was absorbed: the chaos row sees nothing")
			}
			switch {
			case !bytes.Equal(thread.trace, lane.trace):
				t.Error("trace bytes differ between the drivers")
			case !bytes.Equal(thread.metrics, lane.metrics):
				t.Errorf("metrics differ between the drivers\nthread:\n%s\nlane:\n%s", thread.metrics, lane.metrics)
			case thread.events != lane.events || thread.final != lane.final:
				t.Errorf("events %d at %d with the thread driver, %d at %d with the lane's",
					thread.events, thread.final, lane.events, lane.final)
			case thread.ranks != lane.ranks:
				t.Errorf("rank state differs:\nthread %s\nlane   %s", thread.ranks, lane.ranks)
			}
			t.Logf("%d switches with the thread driver, %d with the lane's", thread.switches, lane.switches)
			if lane.switches >= thread.switches {
				t.Errorf("the lane driver saved no switch: %d, thread driver %d", lane.switches, thread.switches)
			}
			if lane.progressSwitches != 0 {
				t.Errorf("%d switches into progress threads, want none", lane.progressSwitches)
			}
		})
	}
}

// countDispatches wraps every protocol handler, for the test's duration,
// to count what it serves by dispatch id.
func countDispatches(t *testing.T) map[int]int {
	served := make(map[int]int, nProtocol)
	saved := protocol
	t.Cleanup(func() { protocol = saved })
	for i := range protocol {
		e := &protocol[i]
		id, dispatch := e.id, e.h.Dispatch
		served[id] = 0
		e.h.Dispatch = func(th *sim.Thread, x *pami.Context, msg *pami.AMessage) (sim.Time, bool) {
			served[id]++
			return dispatch(th, x, msg)
		}
	}
	return served
}

// engineRun is what one run of the script shows.
type engineRun struct {
	trace, metrics   []byte
	events           uint64
	final            sim.Time
	ranks            string // every rank's RNG state, counters and memory digest
	dups             int64
	switches         uint64
	progressSwitches uint64
}

// runEngineScript runs the script on a world of cfg, with the thread
// driver or the lane's.
func runEngineScript(t *testing.T, cfg Config, threadDriver bool) engineRun {
	t.Helper()
	reg := obs.New()
	cfg.Obs = reg
	k := sim.NewKernel()
	if threadDriver {
		k.DisableShortcuts()
	}
	w, err := NewWorld(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([][3]mem.Addr, cfg.Procs) // each rank's a, b and local buffer
	w.Start(func(th *sim.Thread, rt *Runtime) { blocks[rt.Rank] = engineScript(t, th, rt) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	r := engineRun{events: k.EventsFired(), final: k.Now(), switches: k.Switches(),
		progressSwitches: k.SwitchesInto(obs.TrackProgress)}
	var tr, me bytes.Buffer
	if err := reg.WriteChromeTrace(&tr); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&me); err != nil {
		t.Fatal(err)
	}
	r.trace, r.metrics = tr.Bytes(), me.Bytes()
	var ranks bytes.Buffer
	for i := range w.Runtimes {
		rt := &w.Runtimes[i]
		fmt.Fprintf(&ranks, "%d:%v/%v/%v", i, rt.C.RNG, rt.rng, rt.Stats)
		for _, a := range blocks[i] {
			fmt.Fprintf(&ranks, "/%x", rt.C.Space.Bytes(a, engineBlock))
		}
		r.dups += rt.Stats.Get("dup.am")
	}
	r.ranks = ranks.String()
	return r
}

// engineBlock is the size of each block the script writes and reads.
const engineBlock = 8 * 8 * mem.Float64Size

// engineScript is each rank's part of the stream: contiguous and strided
// writes and reads to its two neighbours — past MaxRegions, so through the
// fallback AM protocols and the region queries that find that out —
// accumulates, the three rmws, a mutex round (on a healthy run), fences
// and barriers. It
// returns the rank's blocks.
func engineScript(t *testing.T, th *sim.Thread, rt *Runtime) [3]mem.Addr {
	const ld = 8 * mem.Float64Size
	a := rt.Malloc(th, engineBlock)
	local := rt.LocalAlloc(th, engineBlock)
	b := rt.Malloc(th, engineBlock) // past MaxRegions: a region query finds it is not registered
	rt.CreateMutexes(th, 1)
	p := rt.Procs()
	next, far := (rt.Rank+1)%p, (rt.Rank+2)%p
	for i := range 8 * ld / mem.Float64Size {
		rt.Space().SetFloat64(local+mem.Addr(i*mem.Float64Size), float64(rt.Rank*100+i))
	}
	str, tile := []int{ld}, []int{3 * mem.Float64Size, 3}
	check := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	for _, alloc := range []*Allocation{a, b} {
		check(rt.PutErr(th, local, alloc.At(next), 64))
		check(rt.GetErr(th, alloc.At(far), local+64, 64))
		check(rt.AccErr(th, local, alloc.At(next), 64, 2))
		rt.PutS(th, local, str, alloc.At(far), str, tile)
		rt.GetS(th, alloc.At(next), str, local+ld, str, tile)
		rt.AccS(th, local, str, alloc.At(far), str, tile, 0.5)
		rt.Fence(th, far)
	}
	_, err := rt.FetchAddErr(th, a.At(0).Add(8*ld-8), 1)
	check(err)
	_, err = rt.SwapLongErr(th, b.At(far).Add(8*ld-8), int64(rt.Rank))
	check(err)
	_, err = rt.CompareSwapErr(th, b.At(next).Add(8*ld-16), 0, int64(rt.Rank))
	check(err)
	if !rt.faulty() {
		// The mutex protocol is not fault-hardened: a duplicated unlock
		// request frees a free mutex.
		rt.Lock(th, 0)
		rt.Unlock(th, 0)
	}
	rt.AllFence(th)
	rt.Barrier(th)
	return [3]mem.Addr{a.At(rt.Rank).Addr, b.At(rt.Rank).Addr, local}
}
