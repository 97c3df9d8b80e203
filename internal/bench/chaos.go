package bench

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/armci"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// chaosBlock is the per-worker pattern-block size for put/get verify.
const chaosBlock = 256

// chaosHorizon bounds the probabilistic fault windows; the scripted ones
// are placed relative to FaultEpoch, where the workers' op stream begins.
const chaosHorizon = FaultEpoch + 20*sim.Millisecond

// ChaosPlan is the scripted fault timeline of the chaos profile:
//
//   - a transient full-network outage (every link down 150 us),
//   - one dead-node window on node 0 — the node hosting the hammered
//     rank-0 counter — sized well under the retry budget (~4 ms), and
//   - low-probability message delay and duplication across the whole run.
//
// Everything the workload survives must come from retry, backoff, and
// duplicate suppression; the plan is deterministic given the seed.
func ChaosPlan(seed uint64) *fault.Plan {
	return fault.NewPlan(seed).
		LinkDown(fault.Any, FaultEpoch+150*sim.Microsecond, 150*sim.Microsecond).
		NodeDown(0, FaultEpoch+500*sim.Microsecond, 700*sim.Microsecond).
		Delay(fault.Any, fault.Any, 0, chaosHorizon, 0.02, 5*sim.Microsecond).
		Duplicate(fault.Any, fault.Any, 0, chaosHorizon, 0.02)
}

// ChaosResult summarizes one chaos run: the data-integrity checks and
// the fault/recovery counters that prove the run actually exercised the
// machinery.
type ChaosResult struct {
	Procs   int
	Ops     int64 // fetch-adds expected on the rank-0 counter
	Counter int64 // counter value actually observed

	AccSum    float64 // rank-0 accumulate target, observed
	AccWant   float64
	BadBlocks int // put/get round trips whose bytes came back wrong
	OpErrors  int // *Err operations that exhausted their retry budget

	Retries    int64
	Timeouts   int64
	Recovered  int64
	DupsSeen   int64 // duplicate AMs suppressed at targets
	Dropped    uint64
	Delayed    uint64
	Duplicated uint64

	EventsFired  uint64
	FinalVirtual sim.Time
}

// Clean reports whether the run completed with zero data corruption and
// zero exhausted operations.
func (r ChaosResult) Clean() bool {
	return r.Counter == r.Ops && r.AccSum == r.AccWant && r.BadBlocks == 0 && r.OpErrors == 0
}

// ChaosRun executes the Fig 9-style counter workload — workers hammer a
// rank-0 fetch-and-add counter, round-trip pattern blocks into rank-0
// memory, and accumulate into a rank-0 sum — under the ChaosPlan fault
// script, using the error-returning blocking API throughout. Same seed,
// same result, byte for byte.
func ChaosRun(ctx context.Context, eng *sweep.Engine, procs, perNode, opsEach int, seed uint64) ChaosResult {
	return one(ctx, eng, func(c *sweep.Ctx) ChaosResult {
		return chaosRun(c, procs, perNode, opsEach, seed)
	})
}

// chaosRun is one independent chaos simulation (one sweep point).
func chaosRun(c *sweep.Ctx, procs, perNode, opsEach int, seed uint64) ChaosResult {
	cfg := c.Cfg(armci.Config{
		Procs:        procs,
		ProcsPerNode: perNode,
		AsyncThread:  true,
		Seed:         seed,
		Fault:        ChaosPlan(seed),
	})
	res := ChaosResult{
		Procs:   procs,
		Ops:     int64(procs-1) * int64(opsEach),
		AccWant: float64(procs-1) * float64(opsEach),
	}
	// Per-rank error tallies, folded after the run: worker threads may
	// execute on parallel lanes (Config.Shards > 1), so they must not
	// share mutable host state. Rank 0 learns the workers are done from
	// the barrier itself — the blocking API means a worker reaching the
	// barrier has retired (or given up on) every one of its ops.
	opErrors := make([]int, procs)
	badBlocks := make([]int, procs)
	w := armci.MustRun(cfg, func(th *sim.Thread, rt *armci.Runtime) {
		// Rank-0 layout: counter, float sum, then one pattern slot per rank.
		a := rt.Malloc(th, 16+procs*chaosBlock)
		counter := a.At(0)
		sum := a.At(0).Add(8)
		slot := a.At(0).Add(16 + rt.Rank*chaosBlock)

		if rt.Rank == 0 {
			rt.Barrier(th)
			res.Counter = rt.Space().GetInt64(counter.Addr)
			res.AccSum = rt.Space().GetFloat64(sum.Addr)
			return
		}

		pattern := rt.LocalAlloc(th, chaosBlock)
		scratch := rt.LocalAlloc(th, chaosBlock)
		one := rt.LocalAlloc(th, 8)
		rt.Space().CopyIn(one, float64bytes(1))
		alignToEpoch(th, true)
		buf := make([]byte, chaosBlock)
		for i := 0; i < opsEach; i++ {
			if _, err := rt.FetchAddErr(th, counter, 1); err != nil {
				opErrors[rt.Rank]++
			}
			for j := range buf {
				buf[j] = byte(rt.Rank*31 + i*7 + j)
			}
			rt.Space().CopyIn(pattern, buf)
			if err := rt.PutErr(th, pattern, slot, chaosBlock); err != nil {
				opErrors[rt.Rank]++
			}
			if err := rt.GetErr(th, slot, scratch, chaosBlock); err != nil {
				opErrors[rt.Rank]++
			} else if !bytes.Equal(rt.Space().Bytes(scratch, chaosBlock), buf) {
				badBlocks[rt.Rank]++
			}
			if err := rt.AccErr(th, one, sum, 8, 1.0); err != nil {
				opErrors[rt.Rank]++
			}
			// Space the iterations out so the workload straddles the
			// scripted fault windows instead of finishing before them.
			th.Sleep(100 * sim.Microsecond)
		}
		rt.Barrier(th)
	})
	for r := 0; r < procs; r++ {
		res.OpErrors += opErrors[r]
		res.BadBlocks += badBlocks[r]
	}

	agg := w.AggregateStats()
	res.Retries = agg.Get("retry")
	res.Timeouts = agg.Get("timeout")
	res.Recovered = agg.Get("recovered")
	res.DupsSeen = agg.Get("dup.am")
	res.Dropped = w.Faults.Dropped
	res.Delayed = w.Faults.Delayed
	res.Duplicated = w.Faults.Duplicated
	res.EventsFired = w.K.EventsFired()
	res.FinalVirtual = w.K.Now()
	return res
}

// float64bytes encodes v as the 8 little-endian bytes the accumulate
// handlers operate on.
func float64bytes(v float64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, math.Float64bits(v))
	return b
}

// Chaos renders the chaos profile as a grid: one run per process count,
// with the integrity verdict and the fault/recovery counters. Identical
// seeds render identical bytes — the determinism smoke test depends on
// this.
func Chaos(ctx context.Context, eng *sweep.Engine, procCounts []int, opsEach int, seed uint64) *Grid {
	g := &Grid{Title: "Chaos: Fig 9 workload under scripted faults (seed " +
		fmt.Sprint(seed) + ")",
		Header: []string{"procs", "ops", "counter", "clean", "retries",
			"timeouts", "recovered", "dropped", "dup_seen", "events", "time_us"}}
	// One independent simulation per process count, fanned across the
	// sweep workers; row i is always procCounts[i]'s run.
	results := sweep.MapCtx(eng, ctx, len(procCounts), func(c *sweep.Ctx, i int) ChaosResult {
		return chaosRun(c, procCounts[i], 4, opsEach, seed)
	})
	for _, r := range results {
		clean := "yes"
		if !r.Clean() {
			clean = "NO"
		}
		g.Add(
			fmt.Sprint(r.Procs), fmt.Sprint(r.Ops), fmt.Sprint(r.Counter), clean,
			fmt.Sprint(r.Retries), fmt.Sprint(r.Timeouts), fmt.Sprint(r.Recovered),
			fmt.Sprint(r.Dropped), fmt.Sprint(r.DupsSeen),
			fmt.Sprint(r.EventsFired),
			fmt.Sprintf("%.1f", float64(r.FinalVirtual)/float64(sim.Microsecond)),
		)
	}
	g.Note("faults: 150 us all-links outage, 700 us node-0 dead window, " +
		"2%% msg delay/duplication; recovery via retry+backoff and AM dedup")
	return g
}
