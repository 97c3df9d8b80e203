package armci

import (
	"sort"

	"repro/internal/mem"
	"repro/internal/pami"
	"repro/internal/sim"
)

// cachedRegion is a remote memory-region descriptor (the paper's γ = 8-byte
// metadata) held explicitly for a touched rank. Pointer-free on purpose:
// the collector must not have to scan cached descriptors.
type cachedRegion struct {
	base mem.Addr
	size int
	freq uint64
}

// seedBlock stands for the entries one collective Malloc seeded and nobody
// has touched since: {a.addrs[r], a.Bytes, freq 1} for every registered
// rank r >= next other than the cache's own, except ranks that have an
// explicit bucket. live counts them.
type seedBlock struct {
	a    *Allocation
	next int // eviction cursor: entries of ranks below it are gone
	live int
}

// regionCache holds remote memory-region metadata for the communication
// clique. Its capacity is bounded — caching all ζ·σ regions is
// "prohibitive on a memory limited architecture like Blue Gene/Q" — with
// least-frequently-used replacement, per §III.B. Misses are served by an
// active message to the owner.
//
// Collective Malloc seeds one entry per peer on every rank, an O(p²)
// population across the world, while a rank only ever uses the entries of
// its clique. So a seeded entry is not stored: it is implied by its
// allocation's seedBlock until its rank is first touched (hit, inserted into
// after an AM miss, or purged), at which point that rank's entries are
// written out, in insertion order, as an explicit bucket and stay explicit.
// Host bytes per rank are O(σ + σ·touched) — Eq. 5's σ·ζ·γ — instead of
// O(σ·p).
//
// The contents, hit/miss/evict counts and victim order are exactly those
// of a cache that stores every entry (cache_oracle_test.go keeps that one
// as the reference). Implied entries all have freq 1, the least possible,
// and the victim order is (freq, rank, base): so a block loses its entries
// in ascending rank, which a cursor records.
//
// Bases must be distinct among one rank's live allocations, which the
// allocator guarantees; purgeExchange relies on it.
type regionCache struct {
	cap, self int
	blocks    []seedBlock            // in insertion order; starts on blockArr (insertExchange)
	blockArr  [1]seedBlock           // a runtime copies its cache in, so set up lazily
	touched   map[int][]cachedRegion // explicit buckets, by owner rank; nil until one exists
	slab      []cachedRegion         // where new buckets are cut from
	total     int
	Hits      uint64
	Misses    uint64
	Evicted   uint64
	heads     int // steps of the last over-capacity exchange's replay (replayEvicting)
}

func newRegionCache(capacity, self int) *regionCache {
	return &regionCache{cap: capacity, self: self}
}

// seeds reports whether b once seeded an entry for rank that no eviction
// has taken; the caller checks that rank has no explicit bucket.
func (rc *regionCache) seeds(b *seedBlock, rank int) bool {
	return rank >= b.next && rank != rc.self && b.a.reg[rank]
}

// implies reports whether b stands for an entry of rank.
func (rc *regionCache) implies(b *seedBlock, rank int) bool {
	if !rc.seeds(b, rank) {
		return false
	}
	_, explicit := rc.touched[rank]
	return !explicit
}

// touch returns rank's explicit bucket, first writing out the entries the
// blocks imply for it. New buckets are cut from a shared slab, eight
// ranks' worth at a time, with their capacity clipped so that a bucket
// that later grows moves out instead of running into its neighbour:
// widening the clique costs an allocation per eight peers, not per peer.
func (rc *regionCache) touch(rank int) []cachedRegion {
	bkt, ok := rc.touched[rank]
	if ok {
		return bkt
	}
	if n := len(rc.blocks); n > cap(rc.slab)-len(rc.slab) {
		rc.slab = make([]cachedRegion, 0, 8*n)
	}
	start := len(rc.slab)
	for i := range rc.blocks {
		if b := &rc.blocks[i]; rc.seeds(b, rank) {
			rc.slab = append(rc.slab, cachedRegion{base: b.a.addrs[rank], size: b.a.Bytes, freq: 1})
			b.live--
		}
	}
	bkt = rc.slab[start:len(rc.slab):len(rc.slab)]
	if rc.touched == nil {
		rc.touched = make(map[int][]cachedRegion)
	}
	rc.touched[rank] = bkt
	return bkt
}

func covers(base mem.Addr, size int, addr mem.Addr, n int) bool {
	return addr >= base && uint64(addr)+uint64(n) <= uint64(base)+uint64(size)
}

// lookup reports whether a cached region covers [addr, addr+n) at rank,
// bumping its use count for the LFU policy. Among overlapping regions the
// earliest inserted one is bumped.
func (rc *regionCache) lookup(rank int, addr mem.Addr, n int) bool {
	bkt, ok := rc.touched[rank]
	if !ok {
		for i := range rc.blocks {
			if b := &rc.blocks[i]; rc.seeds(b, rank) && covers(b.a.addrs[rank], b.a.Bytes, addr, n) {
				bkt = rc.touch(rank)
				break
			}
		}
	}
	for i := range bkt {
		if r := &bkt[i]; covers(r.base, r.size, addr, n) {
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
func (rc *regionCache) insert(rank int, base mem.Addr, size int) {
	if rc.total >= rc.cap {
		rc.evictLFU()
	}
	bkt := rc.touch(rank) // first: it is what makes the map
	rc.touched[rank] = append(bkt, cachedRegion{base: base, size: size, freq: 1})
	rc.total++
}

// minSeed returns the block implying the least (rank, base) entry and that
// rank, or nil when no block implies any. Earlier blocks win ties, as
// earlier bucket slots do.
func (rc *regionCache) minSeed() (least *seedBlock, rank int) {
	for i := range rc.blocks {
		b := &rc.blocks[i]
		if b.live == 0 {
			continue
		}
		for !rc.implies(b, b.next) { // live > 0: there is one to stop at
			b.next = b.a.nthReg(b.a.regBefore(b.next + 1)) // the next registered rank
		}
		if r := b.next; least == nil || r < rank || r == rank && b.a.addrs[r] < least.a.addrs[r] {
			least, rank = b, r
		}
	}
	return least, rank
}

// evictLFU removes the least frequently used entry, breaking ties on
// (rank, base), then bucket position, so the victim is deterministic. It
// scans the explicit buckets and one head per block; it runs only when the
// cache is at capacity.
func (rc *regionCache) evictLFU() {
	vRank, vIdx := -1, -1
	var v cachedRegion
	for rank, bkt := range rc.touched {
		for i := range bkt {
			if r := &bkt[i]; vRank < 0 || r.freq < v.freq ||
				r.freq == v.freq && (rank < vRank || rank == vRank && r.base < v.base) {
				v, vRank, vIdx = *r, rank, i
			}
		}
	}
	// An implied entry has freq 1, and its rank has no explicit entries.
	// One of the two exists: total >= cap >= 1.
	if b, rank := rc.minSeed(); b != nil && (vRank < 0 || v.freq > 1 || rank < vRank) {
		b.next = rank + 1
		b.live--
	} else {
		bkt := rc.touched[vRank]
		rc.touched[vRank] = append(bkt[:vIdx], bkt[vIdx+1:]...)
	}
	rc.total--
	rc.Evicted++
}

// insertExchange seeds one entry per registered peer from a collective
// Malloc's exchange: exactly insert(r, a.addrs[r], a.Bytes) for every r
// with a.reg[r] && r != self, in rank order, at a cost of one block plus
// one explicit entry per touched rank.
func (rc *regionCache) insertExchange(a *Allocation) {
	n := int(a.nreg.Load())
	if a.reg[rc.self] {
		n--
	}
	nb := seedBlock{a: a, live: n}
	if rc.total+n > rc.cap {
		rc.replayEvicting(&nb)
	} else {
		rc.total += n
	}
	for rank, bkt := range rc.touched {
		if rc.seeds(&nb, rank) {
			rc.touched[rank] = append(bkt, cachedRegion{base: a.addrs[rank], size: a.Bytes, freq: 1})
			nb.live--
		}
	}
	if rc.blocks == nil {
		rc.blocks = rc.blockArr[:0]
	}
	rc.blocks = append(rc.blocks, nb)
}

// peersBefore returns how many ranks below r (0 <= r <= p) have an entry
// in a's exchange: registered, and not the cache's own.
func (rc *regionCache) peersBefore(a *Allocation, r int) int {
	n := a.regBefore(r)
	if a.reg[rc.self] && rc.self < r {
		n--
	}
	return n
}

// nthPeer returns the rank of the k-th entry, counting from 0, in a's
// exchange.
func (rc *regionCache) nthPeer(a *Allocation, k int) int {
	if a.reg[rc.self] && k >= a.regBefore(rc.self) {
		k++
	}
	return a.nthReg(k)
}

// replayEvicting is the over-capacity exchange: it leaves exactly the
// victims and survivors of calling insert per registered peer in rank
// order, without visiting each peer. Freqs do not change during the
// replay and every incoming entry has freq 1, so from the second insert
// on every victim is the least (rank, base) freq-1 entry present. Those
// come from two heads: the incoming entries that survive so far, a window
// [lo, hi) of the peers in rank order; and the least older entry, from the
// explicit freq-1 entries (sorted once, here) and each older block's
// cursor. Each insert after the cache fills moves hi up by one and takes
// one victim, so a run of victims from the window slides the whole window
// up to the older head in one jump — rank arithmetic over the registered
// ranks (Allocation.regBefore) — and only a victim from the older entries,
// of which there are at most cap, costs a step of its own. Evicted
// explicit entries are marked with size -1 and compacted afterwards. On
// return nb.next and nb.live describe the new block's survivors, touched
// ranks included, and rc.heads counts the steps taken.
func (rc *regionCache) replayEvicting(nb *seedBlock) {
	type ref struct {
		rank, slot int
		base       mem.Addr
	}
	const ( // where the older head comes from
		none = iota
		explicit
		older
	)
	var once []ref
	for rank, bkt := range rc.touched {
		for i := range bkt {
			if bkt[i].freq == 1 {
				once = append(once, ref{rank, i, bkt[i].base})
			}
		}
	}
	sort.Slice(once, func(i, j int) bool {
		p, q := once[i], once[j]
		if p.rank != q.rank {
			return p.rank < q.rank
		}
		if p.base != q.base {
			return p.base < q.base
		}
		return p.slot < q.slot
	})
	a, n := nb.a, nb.live
	p := len(a.addrs)
	// The inserts that still fit take no victim.
	lo, hi := 0, min(n, rc.cap-rc.total)
	rc.total += hi
	marked := false
	rc.heads = 0
	for hi < n {
		rc.heads++
		// The older head: the least (rank, base) among the sources; on a
		// full tie the explicit entry, then the older block, sits in the
		// lower slot. Rank p stands for "none".
		src, v := none, ref{rank: p}
		if len(once) > 0 {
			src, v = explicit, once[0]
		}
		old, oRank := rc.minSeed()
		if old != nil && (oRank < v.rank || oRank == v.rank && old.a.addrs[oRank] < v.base) {
			src, v = older, ref{rank: oRank, base: old.a.addrs[oRank]}
		}
		if lo < hi {
			// Window entries strictly below the older head go first, one
			// per insert.
			below := rc.peersBefore(a, v.rank)
			if v.rank < p && v.rank != rc.self && a.reg[v.rank] && a.addrs[v.rank] < v.base {
				below++
			}
			k := max(0, min(below-lo, n-hi))
			lo += k
			hi += k
			rc.Evicted += uint64(k)
			if hi == n {
				break
			}
		}
		switch src {
		case explicit:
			rc.touched[v.rank][v.slot].size = -1
			once = once[1:]
			marked = true
		case older:
			old.next = oRank + 1
			old.live--
		case none:
			// Only before the first insert, so nothing is marked yet:
			// every cached entry has freq > 1.
			rc.evictLFU()
			rc.total++
		}
		if src != none {
			rc.Evicted++
		}
		hi++
	}
	nb.live = n - lo
	if lo > 0 {
		nb.next = rc.nthPeer(a, lo)
	}
	if !marked {
		return
	}
	for rank, bkt := range rc.touched {
		keep := bkt[:0]
		for _, e := range bkt {
			if e.size >= 0 {
				keep = append(keep, e)
			}
		}
		rc.touched[rank] = keep
	}
}

// purgeExchange drops, for every rank r, the first entry based at
// a.addrs[r]; used when an allocation is collectively freed.
func (rc *regionCache) purgeExchange(a *Allocation) {
	for i := range rc.blocks {
		if rc.blocks[i].a == a {
			rc.total -= rc.blocks[i].live
			rc.blocks = append(rc.blocks[:i], rc.blocks[i+1:]...)
			break
		}
	}
	for rank, bkt := range rc.touched {
		for i := range bkt {
			if bkt[i].base == a.addrs[rank] {
				rc.touched[rank] = append(bkt[:i], bkt[i+1:]...)
				rc.total--
				break
			}
		}
	}
}

// purgeRank drops every entry owned by rank; used when the rank's RDMA
// path turns suspect and all its cached descriptors must be re-resolved.
func (rc *regionCache) purgeRank(rank int) {
	rc.total -= len(rc.touch(rank))
	rc.touched[rank] = nil
}

// Len returns the number of cached entries.
func (rc *regionCache) Len() int { return rc.total }

// remoteRegionFor resolves RDMA metadata for [addr,addr+n) at rank: cache
// hit, or an active-message query to the owner (which needs the owner's
// progress engine — region misses are not free at scale). ok=false means
// the owner has no covering registration and the caller must fall back.
// On a chaos run the query is itself a round trip that can be lost, so
// the wait is bounded: two timed attempts, then unresolved — the caller
// degrades to the AM data path, it never blocks an operation forever on
// metadata.
func (rt *Runtime) remoteRegionFor(th *sim.Thread, rank int, addr mem.Addr, n int) (ok bool) {
	if rt.regions.lookup(rank, addr, n) {
		rt.Stats[statRegionHit]++
		return true
	}
	rt.Stats[statRegionMiss]++
	id, p := rt.newPend()
	hdr := []int64{id, int64(addr), int64(n)}
	for try := 0; try < 2 && !p.done; try++ {
		if try > 0 {
			rt.Stats[statRetry]++
		}
		rt.mainCtx.SendAM(th, rt.epSvc(th, rank), dRegionQ, hdr, nil)
		deadline := pami.NoDeadline // a healthy run loses no message: the first wait ends the loop
		if rt.faulty() {
			deadline = th.Now() + rt.retry.Timeout
		}
		if !rt.mainCtx.WaitCondUntil(th, func() bool { return p.done }, deadline) {
			rt.Stats[statTimeout]++
		}
	}
	q, _ := rt.dropPend(id)
	if !q.found { // no covering registration, or no answer
		rt.Stats[statRegionUnresolved]++
		return false
	}
	before := rt.regions.Evicted
	rt.regions.insert(rank, q.base, q.size)
	if rt.regions.Evicted != before {
		rt.Stats[statRegionEvict] += int64(rt.regions.Evicted - before)
	}
	return true
}

// localRegionFor returns whether local memory [addr, addr+n) is (or can
// lazily become) RDMA-capable. Registration is attempted once per miss;
// failure (region budget exhausted) routes the operation to the fallback
// protocol, as §III.C.1 prescribes.
func (rt *Runtime) localRegionFor(th *sim.Thread, addr mem.Addr, n int) bool {
	if rt.C.FindRegion(addr, n) != nil {
		return true
	}
	return rt.C.RegisterMemory(th, addr, n) != nil
}
