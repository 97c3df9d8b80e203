package armci

import (
	"fmt"
	"sort"

	"repro/internal/pami"
	"repro/internal/sim"
)

// Status bits of the 8-bit per-region communication status (cs_mr).
const (
	csRead  uint8 = 1 << 0
	csWrite uint8 = 1 << 1
)

// consistency implements ARMCI's location consistency: a read (get) that
// targets memory with an outstanding conflicting write (put/accumulate)
// must fence first. Two granularities are supported:
//
//   - naive (cs_tgt): one status per target process — Θ(ζ) space, but any
//     outstanding write to a process fences every read from it;
//   - per-region (cs_mr): an 8-bit status per (distributed structure,
//     target) — Θ(σ·ζ) space, eliminating false positives between
//     independent structures (the paper's dgemm example).
//
// Writes to memory outside any known allocation are tracked in the
// per-target status in both modes (there is no region to key on).
type consistency struct {
	rt   *Runtime
	mode ConsistencyMode
	tgt  []uint8   // per-rank status (nil until first use)
	mr   [][]uint8 // allocation id -> per-rank status (nil until first use)
}

// targetStatus returns the per-rank status vector, allocated on the first
// write or read that has no structure to key on (or any, in naive mode).
func (c *consistency) targetStatus() []uint8 {
	if c.tgt == nil {
		c.tgt = make([]uint8, c.rt.W.Cfg.Procs)
	}
	return c.tgt
}

// regionStatus returns the per-rank status vector for an allocation key.
// Keys are the small dense integers Malloc assigns, so the table is a
// slice: every Fence clears one rank's bit across all σ structures, and
// ranging a slice — unlike a map, whose iteration pays a randomized
// start per range — keeps that sweep off the profile.
func (c *consistency) regionStatus(key int) []uint8 {
	for key >= len(c.mr) {
		c.mr = append(c.mr, nil)
	}
	if c.mr[key] == nil {
		c.mr[key] = make([]uint8, c.rt.W.Cfg.Procs)
	}
	return c.mr[key]
}

// status returns the per-rank vector that tracks structure key under the
// active mode.
func (c *consistency) status(key int) []uint8 {
	if c.mode == ConsistencyNaive || key < 0 {
		return c.targetStatus()
	}
	return c.regionStatus(key)
}

// noteWrite records an outstanding write (put or accumulate) to (rank,
// structure key).
func (c *consistency) noteWrite(rank, key int) { c.status(key)[rank] |= csWrite }

// read admits a get from (rank, structure key): it fences the target first
// if the read conflicts with an outstanding write under the active mode,
// then records the read. It also counts reads that the naive scheme would
// have fenced but the per-region scheme did not — the quantity the §III.E
// ablation reports.
func (c *consistency) read(th *sim.Thread, rank, key int) {
	conflict := c.tgt != nil && c.tgt[rank]&csWrite != 0
	naiveWould := conflict
	if c.mode == ConsistencyPerRegion {
		if !conflict && key >= 0 && key < len(c.mr) && c.mr[key] != nil {
			conflict = c.mr[key][rank]&csWrite != 0
		}
		if !naiveWould {
			// Would naive mode have fenced? Any outstanding write to rank.
			for _, s := range c.mr {
				if s != nil && s[rank]&csWrite != 0 {
					naiveWould = true
					break
				}
			}
		}
	}
	if conflict {
		c.rt.Stats[statConflictFence]++
		c.rt.Fence(th, rank)
	} else if naiveWould {
		c.rt.Stats[statConflictAvoided]++
	}
	c.status(key)[rank] |= csRead
}

// clearRank resets all status for a fenced target.
func (c *consistency) clearRank(rank int) {
	if c.tgt != nil {
		c.tgt[rank] = 0
	}
	for _, s := range c.mr {
		if s != nil {
			s[rank] = 0
		}
	}
}

// clearAll resets the status of every target.
func (c *consistency) clearAll() {
	clear(c.tgt)
	for _, s := range c.mr {
		clear(s)
	}
}

// Fence blocks until every outstanding write from this process to rank is
// remotely visible: RDMA puts are flushed with an ordered control
// round-trip, and AM writes (fallback puts, accumulates) are awaited via
// their acks. Clears the conflict status for the target (§III.E).
//
// On a chaos run the flush round-trip can itself be lost, so it is retried
// under the policy like any operation, and the acks are awaited with a
// bounded deadline. The blocking *Err operations are end-to-end there and
// leave nothing for the fence to wait on — this mainly covers workloads
// that mix Nb* writes with fault injection, which is best-effort: a lost
// Nb write's ack never arrives and the fence panics.
func (rt *Runtime) Fence(th *sim.Thread, rank int) {
	if n := rt.dirty[rank].unflushedPuts; n > 0 {
		s := rt.takeSlot()
		err := rt.attempt(th, "fence.flush", rank, 0, &s.comp, func() {
			rt.mainCtx.FlushRemote(th, rt.epData(th, rank), &s.comp)
		}, nil)
		if err != nil {
			panic(fmt.Sprintf("armci: fence flush to rank %d exhausted retries: %v", rank, err))
		}
		rt.releaseSlot(s)
		rt.noteWrites(rank, -n, 0)
		rt.Stats[statFenceFlush]++
	}
	if rt.dirty[rank].unackedAMs > 0 {
		deadline := pami.NoDeadline
		if rt.faulty() {
			deadline = th.Now() + rt.retry.Timeout*sim.Time(rt.retry.MaxAttempts)
		}
		if !rt.mainCtx.WaitCondUntil(th, func() bool { return rt.dirty[rank].unackedAMs == 0 }, deadline) {
			panic(fmt.Sprintf("armci: fence to rank %d timed out awaiting %d AM acks; "+
				"non-blocking writes are not fault-hardened — use the blocking *Err forms on chaos runs",
				rank, rt.dirty[rank].unackedAMs))
		}
		rt.Stats[statFenceAck]++
	}
	rt.cons.clearRank(rank)
	rt.Stats[statFence]++
	rt.tr("fence", "fence", int64(rank))
}

// AllFence fences every target with outstanding writes (ARMCI_AllFence),
// in ascending rank order, and clears the conflict status of all targets.
// Only this thread starts writes, so while it waits in a fence the fence
// table can only lose targets (their last ack arrives): one taken from it
// up front is fenced only if it is still there when its turn comes.
func (rt *Runtime) AllFence(th *sim.Thread) {
	var few [8]int // the usual clique fits, and stays off the heap
	targets := few[:0]
	for rank := range rt.dirty {
		targets = append(targets, rank)
	}
	sort.Ints(targets)
	for _, rank := range targets {
		if _, outstanding := rt.dirty[rank]; outstanding {
			rt.Fence(th, rank)
		}
	}
	rt.cons.clearAll()
	rt.Stats[statAllFence]++
}
