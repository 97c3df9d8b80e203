package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// naiveMins is the reference the tournament tree replaces: a full scan
// for the two smallest lane next-times and the argmin.
func naiveMins(lanes []*Lane) (min1, min2 Time, argmin int) {
	min1, min2, argmin = timeInf, timeInf, -1
	for i, ln := range lanes {
		t := ln.nextTime()
		if t < min1 {
			min2 = min1
			min1 = t
			argmin = i
		} else if t < min2 {
			min2 = t
		}
	}
	return
}

// treeHarness builds a kernel with n idle lanes and hand-set heap heads,
// bypassing Run, so the tree can be checked against the naive scan over
// arbitrary queue states.
func treeHarness(n int) *Kernel {
	k := NewKernel()
	k.ConfigureLanes(n, 1, 10, nil)
	return k
}

func setHead(ln *Lane, at Time) {
	ln.heap = ln.heap[:0]
	if at != timeInf {
		ln.seq++
		ln.heapPush(event{at: at, seq: ln.seq, a: Func(func() {})})
	}
}

// TestHorizonTreeMatchesScan drives random leaf updates through
// markDirty/flushDirty and checks min1, argmin, min2, and the
// collectBelow set against the naive full scan after every batch, for
// lane counts on and off powers of two.
func TestHorizonTreeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 7, 8, 16, 33} {
		k := treeHarness(n)
		for i, ln := range k.lanes {
			setHead(ln, Time(10+7*i))
		}
		k.buildHorizonTree()
		for round := 0; round < 200; round++ {
			// Mutate a random subset of lanes (some to idle).
			for m := rng.Intn(n) + 1; m > 0; m-- {
				ln := k.lanes[rng.Intn(n)]
				at := Time(rng.Intn(1000))
				if rng.Intn(8) == 0 {
					at = timeInf
				}
				setHead(ln, at)
				k.markDirty(ln)
			}
			k.flushDirty()

			m1, m2, am := naiveMins(k.lanes)
			if got := k.htree[1].t; got != m1 {
				t.Fatalf("n=%d round=%d: root min %d, scan %d", n, round, got, m1)
			}
			if m1 != timeInf {
				// The tree's argmin must hold the minimum; when the minimum is
				// unique it must be THE argmin (the only case horizon
				// assignment distinguishes).
				ti := k.lanes[k.htree[1].idx].nextTime()
				if ti != m1 {
					t.Fatalf("n=%d round=%d: argmin lane holds %d, min %d", n, round, ti, m1)
				}
				if m2 != m1 && int(k.htree[1].idx) != am {
					t.Fatalf("n=%d round=%d: unique-min argmin %d, scan %d", n, round, k.htree[1].idx, am)
				}
			}
			if got := k.htreeMin2(); got != m2 {
				t.Fatalf("n=%d round=%d: min2 %d, scan %d", n, round, got, m2)
			}

			// collectBelow must return exactly the lanes with next event
			// strictly below the threshold, in lane-index order.
			threshold := Time(rng.Intn(1100))
			got := k.collectBelow(1, threshold, nil)
			var want []int
			for i, ln := range k.lanes {
				if ln.nextTime() < threshold {
					want = append(want, i)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d round=%d: collectBelow(%d) returned %d lanes, want %d",
					n, round, threshold, len(got), len(want))
			}
			if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a].idx < got[b].idx }) {
				t.Fatalf("n=%d round=%d: collectBelow out of lane order", n, round)
			}
			for i, ln := range got {
				if ln.idx != want[i] {
					t.Fatalf("n=%d round=%d: collectBelow[%d] = lane %d, want %d",
						n, round, i, ln.idx, want[i])
				}
			}
		}
	}
}

// TestMarkDirtyDedup verifies a lane queues one leaf refresh however
// many times it is marked, and that the base lane never enters the tree.
func TestMarkDirtyDedup(t *testing.T) {
	k := treeHarness(4)
	k.buildHorizonTree()
	k.dirty = k.dirty[:0]
	ln := k.lanes[2]
	k.markDirty(ln)
	k.markDirty(ln)
	k.markDirty(&k.Lane)
	if len(k.dirty) != 1 || k.dirty[0] != ln {
		t.Fatalf("dirty queue = %d entries", len(k.dirty))
	}
	k.flushDirty()
	if len(k.dirty) != 0 || ln.dirtyQ {
		t.Fatal("flushDirty left residue")
	}
}

// TestPopUpTo pins the shared pop helper's contract: strict limit, heap
// wins timestamp ties against the ring, and (at, seq) order overall —
// the single code path both lane windows and the coordinator drain use.
func TestPopUpTo(t *testing.T) {
	k := NewKernel()
	ln := &k.Lane
	// Ring entry at 5 scheduled first, heap entry at 5 scheduled second:
	// queue.go's tie rule says the heap entry (an earlier-scheduled
	// future event reaching its time) fires first only when it was
	// scheduled first — replicate runWindow's merge exactly.
	ln.seq++
	ln.heapPush(event{at: 5, seq: ln.seq, a: Func(func() {})})
	ln.seq++
	ln.ring.push(event{at: 5, seq: ln.seq, a: Func(func() {})})
	ln.seq++
	ln.heapPush(event{at: 9, seq: ln.seq, a: Func(func() {})})

	if _, ok := ln.popUpTo(5); ok {
		t.Fatal("popUpTo(5) returned an event at 5; limit is strict")
	}
	e1, ok1 := ln.popUpTo(6)
	e2, ok2 := ln.popUpTo(6)
	if !ok1 || !ok2 || e1.at != 5 || e2.at != 5 || e1.seq > e2.seq {
		t.Fatalf("tie order: got seq %d then %d", e1.seq, e2.seq)
	}
	if _, ok := ln.popUpTo(9); ok {
		t.Fatal("event at 9 escaped limit 9")
	}
	e3, ok3 := ln.popUpTo(timeInf)
	if !ok3 || e3.at != 9 {
		t.Fatalf("final pop: %v %v", e3.at, ok3)
	}
	if _, ok := ln.popUpTo(timeInf); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

// TestLaneGroupInvariance reruns the ping-pong workload across the
// dispatch grain (including grains larger than the lane count), set on
// the unexported field ConfigureLanes derives: the grain chunks worker
// dispatch only, so results must be identical.
func TestLaneGroupInvariance(t *testing.T) {
	type res struct {
		final Time
		fired uint64
		sum   Time
	}
	run := func(lanes, workers, group int) res {
		t.Helper()
		const latency = Time(100)
		k := NewKernel()
		k.ConfigureLanes(lanes, workers, latency, nil)
		k.laneGroup = group
		sums := make([]Time, lanes)
		for i := 0; i < lanes; i++ {
			ln := k.Lanes()[i]
			i := i
			k.SpawnOn(ln, fmt.Sprintf("rank%d", i), func(th *Thread) {
				for r := 0; r < 50; r++ {
					th.Sleep(7)
					dst := k.Lanes()[(i+1)%lanes]
					at := th.Now()
					fn := func(opAt Time) {
						dst.ScheduleAbs(opAt+latency, func() {
							sums[dst.idx] += dst.Now()
						})
					}
					if dst == ln {
						ln.Defer(at+latency, fn)
					} else {
						ln.DeferRemote(at+latency, fn)
					}
					th.Sleep(13)
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		var sum Time
		for _, s := range sums {
			sum += s
		}
		return res{k.Now(), k.EventsFired(), sum}
	}
	for _, lanes := range []int{1, 4, 9} {
		base := run(lanes, 1, 1)
		for _, workers := range []int{1, 2, 4} {
			for _, group := range []int{1, 2, 16} {
				if got := run(lanes, workers, group); got != base {
					t.Fatalf("lanes=%d workers=%d group=%d: got %+v, want %+v",
						lanes, workers, group, got, base)
				}
			}
		}
	}
}
