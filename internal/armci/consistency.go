package armci

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Status bits of the 8-bit per-region communication status (cs_mr).
const (
	csRead  uint8 = 1 << 0
	csWrite uint8 = 1 << 1
)

// Location consistency: a read (get) that targets memory with an
// outstanding conflicting write (put/accumulate) must fence first. Two
// granularities are supported, both kept in the clique table's status
// rows:
//
//   - naive (cs_tgt): one status per target process, column 0 — Θ(ζ)
//     space, but any outstanding write to a process fences every read
//     from it;
//   - per-region (cs_mr): an 8-bit status per (distributed structure,
//     target), column 1+key — Θ(σ·ζ) space, eliminating false positives
//     between independent structures (the paper's dgemm example).
//
// Writes to memory outside any known allocation are tracked in the
// per-target status in both modes (there is no region to key on).

// status returns the status byte that tracks structure key at the peer
// in position pos, under the active mode.
func (rt *Runtime) status(pos, key int) *uint8 {
	if rt.W.Cfg.Consistency == ConsistencyNaive || key < 0 {
		return rt.peers.statusAt(pos, 0, 1)
	}
	return rt.peers.statusAt(pos, 1+key, 1+len(rt.allocs))
}

// markWrite records an outstanding write (put or accumulate) to (the peer
// at position pos, structure key).
func (rt *Runtime) markWrite(pos, key int) {
	*rt.status(pos, key) |= csWrite
}

// admitRead admits a get from (rank, structure key): it fences the target
// first if the read conflicts with an outstanding write under the active
// mode, then records the read, and returns rank's position. It also counts
// reads that the naive scheme would have fenced but the per-region scheme
// did not — the quantity the §III.E ablation reports.
func (rt *Runtime) admitRead(th *sim.Thread, rank, key int) (pos int) {
	pos = rt.peers.record(rank)
	row := rt.peers.row(pos)
	conflict, naiveWould := false, false
	if len(row) > 0 {
		conflict = row[0]&csWrite != 0
		if rt.W.Cfg.Consistency == ConsistencyPerRegion && key >= 0 && 1+key < len(row) {
			conflict = conflict || row[1+key]&csWrite != 0
		}
		// Would naive mode have fenced? Any outstanding write to rank.
		for _, s := range row {
			naiveWould = naiveWould || s&csWrite != 0
		}
	}
	if conflict {
		rt.Stats[statConflictFence]++
		rt.fence(th, rank, pos)
	} else if naiveWould {
		rt.Stats[statConflictAvoided]++
	}
	*rt.status(pos, key) |= csRead
	return pos
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
func (rt *Runtime) Fence(th *sim.Thread, rank int) { rt.fence(th, rank, rt.peers.find(rank)) }

// fence is Fence to rank at position pos (-1: no record, nothing to wait for).
func (rt *Runtime) fence(th *sim.Thread, rank, pos int) {
	if pos >= 0 {
		if n := int(rt.peers.at(pos).puts); n > 0 {
			s := rt.takeSlot()
			err := rt.attempt(th, flushOp, rank, 0, &s.comp, func() {
				rt.mainCtx.FlushRemote(th, rt.endpoint(th, pos, false), &s.comp)
			}, nil)
			if err != nil {
				panic(fmt.Sprintf("armci: fence flush to rank %d exhausted retries: %v", rank, err))
			}
			rt.releaseSlot(s)
			rt.peers.addWrites(pos, -n, 0)
			rt.Stats[statFenceFlush]++
		}
		if rt.peers.at(pos).ams > 0 {
			if !rt.mainCtx.WaitCondUntil(th, func() bool { return rt.peers.at(pos).ams == 0 }, rt.deadline(th, true)) {
				panic(fmt.Sprintf("armci: fence to rank %d timed out awaiting %d AM acks; "+
					"non-blocking writes are not fault-hardened — use the blocking *Err forms on chaos runs",
					rank, rt.peers.at(pos).ams))
			}
			rt.Stats[statFenceAck]++
		}
		clear(rt.peers.row(pos))
	}
	rt.Stats[statFence]++
	rt.tr("fence", "fence", int64(rank))
}

// AllFence fences every target with outstanding writes (ARMCI_AllFence),
// in ascending rank order, and clears the conflict status of all targets.
// Only this thread starts writes, so while it waits in a fence the
// targets can only lose writes (their last ack arrives): one taken from
// the clique table up front is fenced only if it still has writes
// outstanding when its turn comes. With none outstanding it visits no
// record.
func (rt *Runtime) AllFence(th *sim.Thread) {
	if rt.peers.dirty > 0 {
		var few [8]int // the usual clique fits, and stays off the heap
		targets := few[:0]
		for pos := 0; pos < rt.peers.size(); pos++ {
			if p := rt.peers.at(pos); p.puts != 0 || p.ams != 0 {
				targets = append(targets, int(p.rank))
			}
		}
		sort.Ints(targets)
		for _, rank := range targets {
			if p := rt.peers.at(rt.peers.find(rank)); p.puts != 0 || p.ams != 0 {
				rt.Fence(th, rank)
			}
		}
	}
	clear(rt.peers.cs)
	rt.Stats[statAllFence]++
}
