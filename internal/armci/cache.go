package armci

import (
	"slices"
	"sort"

	"repro/internal/mem"
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
// allocation's seedBlock until its rank is first touched (looked up,
// inserted into after an AM miss, or purged), at which point that rank's
// entries are written out, in insertion order, as an explicit bucket in
// the rank's clique record (peer.bucket) and stay explicit. Host bytes per
// rank are O(σ + σ·touched) — Eq. 5's σ·ζ·γ — instead of O(σ·p). A
// touched rank always has a record already: the operation that touches
// it made one.
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
	blocks   []seedBlock  // in insertion order; starts on blockArr (insertExchange)
	blockArr [1]seedBlock // the zero cache is an empty one, so set up lazily
	total    int
	Hits     uint64
	Misses   uint64
	Evicted  uint64
	heads    int // steps of the last over-capacity exchange's replay (replayEvicting)
}

// cacheView is a runtime's region cache bound, for one call, to what it
// shares with the runtime: the clique that holds its buckets, the rank it
// holds no entries for, and Config.RegionCacheCap.
type cacheView struct {
	*regionCache
	peers     *clique
	self, cap int
}

// cache returns rt's region cache bound to its clique.
func (rt *Runtime) cache() cacheView {
	return cacheView{&rt.regions, &rt.peers, rt.Rank, rt.W.Cfg.RegionCacheCap}
}

// seeds reports whether b once seeded an entry for rank that no eviction
// has taken; the caller checks that rank has no explicit bucket.
func (rc cacheView) seeds(b *seedBlock, rank int) bool {
	return rank >= b.next && rank != rc.self && b.a.reg[rank]
}

// implies reports whether b stands for an entry of rank: one b seeded,
// and rank's record holds no bucket.
func (rc cacheView) implies(b *seedBlock, rank int) bool {
	if !rc.seeds(b, rank) {
		return false
	}
	pos := rc.peers.find(rank)
	return pos < 0 || rc.peers.at(pos).flags&peerBucket == 0
}

// touch returns the record at position pos with its bucket, first writing
// out the entries the blocks imply for the peer, into room for one per
// block.
func (rc cacheView) touch(pos int) *peer {
	p := rc.peers.at(pos)
	if p.flags&peerBucket != 0 {
		return p
	}
	rank, bkt := int(p.rank), rc.peers.bucketRoom(p.bucket[:0], len(rc.blocks)) // the room an earlier world's record here left
	for i := range rc.blocks {
		if b := &rc.blocks[i]; rc.seeds(b, rank) {
			bkt = append(bkt, cachedRegion{base: b.a.addrs[rank], size: b.a.Bytes, freq: 1})
			b.live--
		}
	}
	p.bucket = bkt
	p.flags |= peerBucket
	return p
}

func covers(base mem.Addr, size int, addr mem.Addr, n int) bool {
	return addr >= base && uint64(addr)+uint64(n) <= uint64(base)+uint64(size)
}

// lookup reports whether a cached region covers [addr, addr+n) at the peer
// in position pos, bumping its use count for the LFU policy. Among
// overlapping regions the earliest inserted one is bumped.
func (rc cacheView) lookup(pos int, addr mem.Addr, n int) bool {
	bkt := rc.touch(pos).bucket
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

// insert adds an entry for the peer at position pos, evicting the least
// frequently used entry when at capacity. Ties break deterministically on
// (rank, base).
func (rc cacheView) insert(pos int, base mem.Addr, size int) {
	if rc.total >= rc.cap {
		rc.evictLFU()
	}
	p := rc.touch(pos)
	p.bucket = append(rc.peers.bucketRoom(p.bucket, 1), cachedRegion{base: base, size: size, freq: 1})
	rc.total++
}

// minSeed returns the block implying the least (rank, base) entry and that
// rank, or nil when no block implies any. Earlier blocks win ties, as
// earlier bucket slots do.
func (rc cacheView) minSeed() (least *seedBlock, rank int) {
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
// scans the explicit buckets, in clique position order (a record with no
// bucket has no entries), and one head per block; it runs only when the
// cache is at capacity.
func (rc cacheView) evictLFU() {
	vRank, vPos, vIdx := -1, -1, -1
	var v cachedRegion
	for pos := 0; pos < rc.peers.size(); pos++ {
		p := rc.peers.at(pos)
		rank := int(p.rank)
		for i := range p.bucket {
			if r := &p.bucket[i]; vRank < 0 || r.freq < v.freq ||
				r.freq == v.freq && (rank < vRank || rank == vRank && r.base < v.base) {
				v, vRank, vPos, vIdx = *r, rank, pos, i
			}
		}
	}
	// An implied entry has freq 1, and its rank has no explicit entries.
	// One of the two exists: total >= cap >= 1.
	if b, rank := rc.minSeed(); b != nil && (vRank < 0 || v.freq > 1 || rank < vRank) {
		b.next = rank + 1
		b.live--
	} else {
		p := rc.peers.at(vPos)
		p.bucket = slices.Delete(p.bucket, vIdx, vIdx+1)
	}
	rc.total--
	rc.Evicted++
}

// insertExchange seeds one entry per registered peer from a collective
// Malloc's exchange: exactly insert(r, a.addrs[r], a.Bytes) for every r
// with a.reg[r] && r != self, in rank order, at a cost of one block plus
// one explicit entry per touched rank.
func (rc cacheView) insertExchange(a *Allocation) {
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
	for pos := 0; pos < rc.peers.size(); pos++ {
		if p := rc.peers.at(pos); p.flags&peerBucket != 0 && rc.seeds(&nb, int(p.rank)) {
			p.bucket = append(rc.peers.bucketRoom(p.bucket, 1), cachedRegion{base: a.addrs[p.rank], size: a.Bytes, freq: 1})
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
func (rc cacheView) peersBefore(a *Allocation, r int) int {
	n := a.regBefore(r)
	if a.reg[rc.self] && rc.self < r {
		n--
	}
	return n
}

// nthPeer returns the rank of the k-th entry, counting from 0, in a's
// exchange.
func (rc cacheView) nthPeer(a *Allocation, k int) int {
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
func (rc cacheView) replayEvicting(nb *seedBlock) {
	type ref struct {
		rank, pos, slot int
		base            mem.Addr
	}
	const ( // where the older head comes from
		none = iota
		explicit
		older
	)
	var once []ref
	for pos := 0; pos < rc.peers.size(); pos++ {
		p := rc.peers.at(pos)
		for i, e := range p.bucket {
			if e.freq == 1 {
				once = append(once, ref{int(p.rank), pos, i, e.base})
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
			rc.peers.at(v.pos).bucket[v.slot].size = -1
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
	for pos := 0; pos < rc.peers.size(); pos++ {
		p := rc.peers.at(pos)
		p.bucket = slices.DeleteFunc(p.bucket, func(e cachedRegion) bool { return e.size < 0 })
	}
}

// purgeExchange drops, for every rank r, the first entry based at
// a.addrs[r]; used when an allocation is collectively freed.
func (rc cacheView) purgeExchange(a *Allocation) {
	if i := slices.IndexFunc(rc.blocks, func(b seedBlock) bool { return b.a == a }); i >= 0 {
		rc.total -= rc.blocks[i].live
		rc.blocks = slices.Delete(rc.blocks, i, i+1)
	}
	for pos := 0; pos < rc.peers.size(); pos++ {
		p := rc.peers.at(pos)
		if i := slices.IndexFunc(p.bucket, func(e cachedRegion) bool { return e.base == a.addrs[p.rank] }); i >= 0 {
			p.bucket = slices.Delete(p.bucket, i, i+1)
			rc.total--
		}
	}
}

// purgeRank drops every entry of the peer at position pos, which keeps
// an empty bucket; used when the peer's RDMA path turns suspect and all its
// cached descriptors must be re-resolved.
func (rc cacheView) purgeRank(pos int) {
	p := rc.touch(pos)
	rc.total -= len(p.bucket)
	p.bucket = p.bucket[:0]
}

// remoteRegionFor resolves RDMA metadata for [addr,addr+n) at the peer in
// position pos: cache hit, or an active-message query to the owner (which
// needs the owner's progress engine — region misses are not free at
// scale). ok=false means
// the owner has no covering registration and the caller must fall back.
// On a chaos run the query is itself a round trip that can be lost, so
// the wait is bounded: two timed attempts, then unresolved — the caller
// degrades to the AM data path, it never blocks an operation forever on
// metadata.
func (rt *Runtime) remoteRegionFor(th *sim.Thread, pos int, addr mem.Addr, n int) (ok bool) {
	if rt.cache().lookup(pos, addr, n) {
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
		rt.mainCtx.SendAM(th, rt.endpoint(th, pos, true), dRegionQ, hdr, nil)
		// A healthy run loses no message: the first wait ends the loop.
		if !rt.mainCtx.WaitCondUntil(th, func() bool { return p.done }, rt.deadline(th, false)) {
			rt.Stats[statTimeout]++
		}
	}
	q, _ := rt.dropPend(id)
	if !q.found { // no covering registration, or no answer
		rt.Stats[statRegionUnresolved]++
		return false
	}
	before := rt.regions.Evicted
	rt.cache().insert(pos, q.base, q.size)
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
