package armci

import "repro/internal/mem"

// This file is the dense region cache the package shipped before seed
// blocks: every seeded entry stored, one bucket per rank. It is kept,
// unchanged but for its name, as the reference TestRegionCacheMatchesDense
// compares regionCache against.

// remoteRegion is a cached remote memory-region descriptor (the paper's
// γ = 8-byte metadata). It is pointer-free on purpose: caches hold up to
// ζ·σ of these per rank, and the collector must not have to scan them.
type remoteRegion struct {
	rank int
	base mem.Addr
	size int
	freq uint64
}

// denseCache holds remote memory-region metadata for the communication
// clique. Its capacity is bounded — caching all ζ·σ regions is
// "prohibitive on a memory limited architecture like Blue Gene/Q" — with
// least-frequently-used replacement, per §III.B. Misses are served by an
// active message to the owner.
//
// Entries live in dense per-rank value buckets (ranks are 0..procs-1, so
// a slice beats a map) rather than individually heap-allocated nodes:
// collective Malloc seeds one entry per peer on every rank, an O(p²)
// population across the world that dominated the Fig 9 p=4096 wall clock
// when each entry cost a pointer allocation plus a map assign.
type denseCache struct {
	cap     int
	byRank  [][]remoteRegion // indexed by owner rank
	total   int
	Hits    uint64
	Misses  uint64
	Evicted uint64
}

func newDenseCache(capacity, procs int) *denseCache {
	return &denseCache{cap: capacity, byRank: make([][]remoteRegion, procs)}
}

// lookup reports whether a cached region covers [addr, addr+n) at rank,
// bumping its use count for the LFU policy.
func (rc *denseCache) lookup(rank int, addr mem.Addr, n int) bool {
	b := rc.byRank[rank]
	for i := range b {
		r := &b[i]
		if addr >= r.base && uint64(addr)+uint64(n) <= uint64(r.base)+uint64(r.size) {
			r.freq++
			rc.Hits++
			return true
		}
	}
	rc.Misses++
	return false
}

// insert adds an entry, evicting the least frequently used entry when at
// capacity. Ties break deterministically on (rank, base).
func (rc *denseCache) insert(rank int, base mem.Addr, size int) {
	if rc.total >= rc.cap {
		rc.evictLFU()
	}
	rc.byRank[rank] = append(rc.byRank[rank], remoteRegion{rank: rank, base: base, size: size, freq: 1})
	rc.total++
}

// insertExchange seeds one entry per registered peer from a collective
// Malloc exchange: exactly insert(r, addrs[r], size) for every r with
// registered[r] && r != self, in rank order. The batch exists for its
// allocation profile — when the whole exchange fits under cap, all p−1
// entries land in one arena array and empty buckets are capped sub-slices
// of it (a later append copies out instead of clobbering a neighbour),
// so pre-population costs O(1) allocations per rank instead of O(p).
func (rc *denseCache) insertExchange(self int, addrs []mem.Addr, registered []bool, size int) {
	n := 0
	for r := range addrs {
		if registered[r] && r != self {
			n++
		}
	}
	if rc.total+n > rc.cap {
		// Evictions interleave with inserts; replay insert()'s
		// evict-then-append loop through a heap instead of per-insert
		// O(entries) victim scans. The naive loop is O(n·(p+cap)) —
		// the setup cliff that made p=8192 worlds ~250x slower than
		// p=4096 ones (where the whole exchange fits under cap).
		rc.insertExchangeEvicting(self, addrs, registered, size)
		return
	}
	arena := make([]remoteRegion, n)
	i := 0
	for r := range addrs {
		if !registered[r] || r == self {
			continue
		}
		arena[i] = remoteRegion{rank: r, base: addrs[r], size: size, freq: 1}
		if len(rc.byRank[r]) == 0 {
			rc.byRank[r] = arena[i : i+1 : i+1]
		} else {
			rc.byRank[r] = append(rc.byRank[r], arena[i])
		}
		i++
	}
	rc.total += n
}

// exchItem is one cache entry's standing in the batch-eviction replay:
// an original entry (inRank = -1) at byRank[rank][slot], or the pending
// incoming entry for rank (inRank = rank, ordered after that bucket's
// originals, where append would have placed it).
type exchItem struct {
	freq   uint64
	rank   int
	base   mem.Addr
	slot   int
	inRank int
}

// exchLess is evictLFU's victim priority: least frequent first, ties on
// (rank, base), then bucket position (first encountered by the scan).
func exchLess(a, b *exchItem) bool {
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	if a.base != b.base {
		return a.base < b.base
	}
	return a.slot < b.slot
}

func exchSiftUp(h []exchItem, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !exchLess(&h[i], &h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func exchSiftDown(h []exchItem, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && exchLess(&h[r], &h[l]) {
			m = r
		}
		if !exchLess(&h[m], &h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// insertExchangeEvicting is the over-capacity exchange path: exactly the
// victims and survivors of calling insert(r, addrs[r], size) for every
// registered peer in rank order, computed in O(entries + n·log cap + p)
// instead of a per-insert scan of every bucket. All entries — originals
// and already-inserted incoming ones — sit in one min-heap keyed by the
// eviction priority; each over-capacity insert pops the victim the naive
// scan would have picked (freqs never change during the replay, so the
// heap is never stale). Evicted originals are marked in place with a
// size of -1 and compacted afterwards, preserving bucket order; a
// surviving incoming entry appends after its bucket's surviving
// originals, exactly where the naive append would have left it.
func (rc *denseCache) insertExchangeEvicting(self int, addrs []mem.Addr, registered []bool, size int) {
	h := make([]exchItem, 0, rc.total+1)
	for rank := range rc.byRank {
		b := rc.byRank[rank]
		for i := range b {
			h = append(h, exchItem{freq: b[i].freq, rank: b[i].rank, base: b[i].base, slot: i, inRank: -1})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		exchSiftDown(h, i)
	}

	incomingDead := make([]bool, len(addrs))
	cur := rc.total
	pops := 0
	for r := range addrs {
		if !registered[r] || r == self {
			continue
		}
		if cur >= rc.cap && len(h) > 0 {
			v := h[0]
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			exchSiftDown(h, 0)
			if v.inRank >= 0 {
				incomingDead[v.inRank] = true
			} else {
				rc.byRank[v.rank][v.slot].size = -1 // compacted below
			}
			pops++
			cur--
		}
		h = append(h, exchItem{freq: 1, rank: r, base: addrs[r], slot: 1 << 30, inRank: r})
		exchSiftUp(h, len(h)-1)
		cur++
	}

	for rank := range rc.byRank {
		b := rc.byRank[rank]
		keep := b[:0]
		for i := range b {
			if b[i].size >= 0 {
				keep = append(keep, b[i])
			}
		}
		if registered[rank] && rank != self && !incomingDead[rank] {
			keep = append(keep, remoteRegion{rank: rank, base: addrs[rank], size: size, freq: 1})
		}
		rc.byRank[rank] = keep
	}
	rc.total = cur
	rc.Evicted += uint64(pops)
}

// evictLFU removes the least frequently used entry, breaking ties on
// (rank, base) so the victim is deterministic. The scan is O(entries)
// but runs only when the cache is at capacity.
func (rc *denseCache) evictLFU() {
	vRank, vIdx := -1, -1
	var victim *remoteRegion
	for rank := range rc.byRank {
		b := rc.byRank[rank]
		for i := range b {
			r := &b[i]
			if victim == nil || r.freq < victim.freq ||
				(r.freq == victim.freq && (r.rank < victim.rank ||
					(r.rank == victim.rank && r.base < victim.base))) {
				victim, vRank, vIdx = r, rank, i
			}
		}
	}
	if victim == nil {
		return
	}
	b := rc.byRank[vRank]
	copy(b[vIdx:], b[vIdx+1:])
	rc.byRank[vRank] = b[:len(b)-1]
	rc.total--
	rc.Evicted++
}

// purge drops the entry for (rank, base); used when an allocation is
// collectively freed.
func (rc *denseCache) purge(rank int, base mem.Addr) {
	b := rc.byRank[rank]
	for i := range b {
		if b[i].base == base {
			copy(b[i:], b[i+1:])
			rc.byRank[rank] = b[:len(b)-1]
			rc.total--
			return
		}
	}
}

// purgeRank drops every entry owned by rank; used when the rank's RDMA
// path turns suspect and all its cached descriptors must be re-resolved.
func (rc *denseCache) purgeRank(rank int) {
	rc.total -= len(rc.byRank[rank])
	rc.byRank[rank] = nil
}

// Len returns the number of cached entries.
func (rc *denseCache) Len() int { return rc.total }
