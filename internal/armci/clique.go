package armci

import (
	"math/bits"
	"slices"

	"repro/internal/pami"
	"repro/internal/sim"
)

// peer is one record of a rank's clique table: what the rank keeps about a
// peer it has addressed — which endpoints exist, writes not yet known
// complete (the fence counts), region-cache bucket and RDMA suspect
// window. Its consistency status is the record's row of clique.cs.
type peer struct {
	bucket  []cachedRegion // explicit region-cache entries, once flags has peerBucket (regionCache)
	suspect sim.Time       // RDMA path suspect until this time (chaos runs only)
	puts    int32          // RDMA puts not yet known remote-visible
	ams     int32          // AM writes (fallback put, acc) awaiting ack
	rank    int32
	node    int32 // the peer's node, once an endpoint exists: an endpoint is (rank, context, node)
	flags   uint8 // peerKnown, and which endpoints and bucket exist
}

const (
	peerKnown  uint8 = 1 << iota // the record is in use
	peerData                     // data endpoint (context 0) created
	peerSvc                      // service endpoint created
	peerBucket                   // the peer's region-cache entries are bucket, even when it is empty
)

// clique is a rank's per-peer state, one record per peer in first-contact
// order: ζ records, never p. The first record lives in the runtime itself,
// so a rank that talks to one peer — every worker hammering the counter's
// owner — allocates nothing for it; the rest live in more, which grows
// 2, 4, 8, 16 records and on by doubling, found through index, an
// open-addressed table of (rank, position) pairs, by one probe
// sequence that reads no record. Positions are stable; a *peer is valid
// until the next record is added, so code that blocks between a lookup
// and a write keeps the position, not the pointer.
//
// cs is the consistency status (§III.E), a row of columns bytes per
// position: column 0 is the peer's cs_tgt, column 1+k its cs_mr for
// allocation key k — Eq. 5's σ·ζ, not σ·p. It is empty until a status is
// first written, and from then on holds a row for every record, so the
// column count is len(cs) over the record count. dirty counts the records
// whose fence counts are not both zero. slab is the room region-cache
// buckets are cut from (bucketRoom). A table outlives its world on the
// shelf (reset): records, index, matrix and buckets keep their room, and
// nothing the table does depends on it.
type clique struct {
	first peer
	more  []peer // positions 1.., empty until a second peer
	index []indexEntry
	cs    []uint8
	slab  []cachedRegion
	dirty int
}

// indexEntry is one slot of clique.index: a rank and its position, 0
// for an empty slot (position 0 is the first record, never indexed).
type indexEntry struct{ rank, pos int32 }

// size returns the number of records.
func (c *clique) size() int {
	if c.first.flags == 0 {
		return 0
	}
	return 1 + len(c.more)
}

// at returns the record at position pos.
func (c *clique) at(pos int) *peer {
	if pos == 0 {
		return &c.first
	}
	return &c.more[pos-1]
}

// slot returns where rank's probe sequence in index starts.
func (c *clique) slot(rank int) int {
	shift := 32 - bits.TrailingZeros(uint(len(c.index)))
	return int(uint32(rank) * 0x9e3779b1 >> shift) // Fibonacci hashing: ranks in strides spread
}

// find returns rank's position, or -1 when rank has no record.
func (c *clique) find(rank int) int {
	if c.first.flags == 0 {
		return -1
	}
	if int(c.first.rank) == rank {
		return 0
	}
	if len(c.index) == 0 {
		return -1
	}
	mask := len(c.index) - 1
	for i := c.slot(rank); ; i = (i + 1) & mask {
		e := c.index[i]
		if e.pos == 0 {
			return -1
		}
		if int(e.rank) == rank {
			return int(e.pos)
		}
	}
}

// record returns rank's position, adding a record at the end when rank
// has none.
func (c *clique) record(rank int) int {
	if pos := c.find(rank); pos >= 0 {
		return pos
	}
	if c.first.flags == 0 {
		// No record yet, so no status matrix either.
		c.first = peer{bucket: c.first.bucket[:0], rank: int32(rank), flags: peerKnown}
		return 0
	}
	cols := c.columns()
	if n := len(c.more); n < cap(c.more) {
		// A record an earlier world left here keeps its bucket's room.
		c.more = c.more[:n+1]
		c.more[n] = peer{bucket: c.more[n].bucket[:0], rank: int32(rank), flags: peerKnown}
	} else {
		c.more = append(slices.Grow(c.more, max(2, n)), peer{rank: int32(rank), flags: peerKnown})
	}
	pos := len(c.more)
	if 2*pos > len(c.index) {
		c.reindex(max(4, 2*len(c.index)))
	} else {
		c.place(pos)
	}
	if len(c.cs) > 0 && cap(c.cs) < len(c.cs)+cols {
		// Room for a row per record more can hold: the matrix grows when
		// the records do, not a row at a time.
		c.cs = slices.Grow(c.cs, (1+cap(c.more))*cols-len(c.cs))
	}
	c.cs = append(c.cs, make([]uint8, cols)...)
	return pos
}

// place enters position pos of more into index.
func (c *clique) place(pos int) {
	mask := len(c.index) - 1
	rank := c.more[pos-1].rank
	i := c.slot(int(rank))
	for c.index[i].pos != 0 {
		i = (i + 1) & mask
	}
	c.index[i] = indexEntry{rank: rank, pos: int32(pos)}
}

// reindex rebuilds index with n slots, a power of two, in the room an
// earlier world grew when there is enough of it: the table's size is the
// records' alone, whatever room was kept.
func (c *clique) reindex(n int) {
	if n <= cap(c.index) {
		c.index = c.index[:n]
		clear(c.index)
	} else {
		c.index = make([]indexEntry, n)
	}
	for pos := 1; pos <= len(c.more); pos++ {
		c.place(pos)
	}
}

// reset empties the table for its rank's next world, keeping the room it
// grew: each record it used is cleared but for its bucket's room, which
// the next record at that position takes (record, cacheView.touch), and
// the index and status matrix keep their arrays.
func (c *clique) reset() {
	for pos := c.size() - 1; pos >= 0; pos-- { // the first record last: it says how many there are
		p := c.at(pos)
		*p = peer{bucket: p.bucket[:0]}
	}
	clear(c.index)
	clear(c.cs)
	*c = clique{first: c.first, more: c.more[:0], index: c.index[:0], cs: c.cs[:0], slab: c.slab}
}

// columns returns the status columns: 1 + the allocation keys that have
// a byte in every row, or 0 before the first status.
func (c *clique) columns() int {
	if len(c.cs) == 0 {
		return 0
	}
	return len(c.cs) / c.size()
}

// row returns position pos's status bytes (empty before the first
// status).
func (c *clique) row(pos int) []uint8 {
	n := c.columns()
	return c.cs[pos*n : (pos+1)*n]
}

// statusAt returns position pos's status byte in column col, first
// widening every row to max(col+1, width) columns when col is past them.
func (c *clique) statusAt(pos, col, width int) *uint8 {
	n := c.columns()
	if col >= n {
		wide := max(col+1, width)
		if size := c.size() * wide; size > cap(c.cs) {
			m := make([]uint8, size, (1+cap(c.more))*wide)
			for i := 0; n > 0 && i < c.size(); i++ {
				copy(m[i*wide:], c.cs[i*n:(i+1)*n])
			}
			c.cs = m
		} else {
			// Widen in the room there is, last row first: a row only
			// moves up.
			c.cs = c.cs[:size]
			for i := c.size() - 1; i >= 0; i-- {
				copy(c.cs[i*wide:], c.cs[i*n:(i+1)*n])
				clear(c.cs[i*wide+n : (i+1)*wide])
			}
		}
		n = wide
	}
	return &c.cs[pos*n+col]
}

// addWrites adds to position pos's fence counts: puts more unflushed RDMA
// puts, ams more unacked AM writes (negative when an ack arrives).
func (c *clique) addWrites(pos, puts, ams int) {
	p := c.at(pos)
	was := p.puts != 0 || p.ams != 0
	p.puts += int32(puts)
	p.ams += int32(ams)
	if p.ams < 0 {
		panic("armci: ack underflow")
	}
	switch is := p.puts != 0 || p.ams != 0; {
	case is && !was:
		c.dirty++
	case was && !is:
		c.dirty--
	}
}

// bucketRoom returns bkt with room for n more entries: bkt itself when it
// has it, else a copy in a cut of the slab that is the bucket's alone (its
// capacity clipped). The slab is made eight cuts at a time: widening the
// clique costs an allocation per eight buckets, never one per peer.
func (c *clique) bucketRoom(bkt []cachedRegion, n int) []cachedRegion {
	if cap(bkt)-len(bkt) >= n {
		return bkt
	}
	size := len(bkt) + max(n, len(bkt))
	if len(c.slab) < size {
		c.slab = make([]cachedRegion, 8*size)
	}
	cut := append(c.slab[:0:size], bkt...)
	c.slab = c.slab[size:]
	return cut
}

// endpoint returns (creating on first use) the endpoint addressing the
// data context (svc false: context 0) or the remote-service context of the
// peer at position pos. The two are separate even when they name the same
// context (ρ = 1), and each is created, and charged, once; the record
// keeps which exist and the peer's node, not the endpoints.
func (rt *Runtime) endpoint(th *sim.Thread, pos int, svc bool) pami.Endpoint {
	p := rt.peers.at(pos)
	ctx, made := 0, peerData
	if svc {
		ctx, made = rt.W.svcIdx, peerSvc
	}
	if p.flags&made == 0 {
		ep := rt.C.CreateEndpoint(th, int(p.rank), ctx) // sleeps: another of the rank's threads may add records
		p = rt.peers.at(pos)
		p.node = int32(ep.Node)
		p.flags |= made
		rt.Stats[statEpCreated]++
	}
	return pami.Endpoint{Rank: int(p.rank), Ctx: ctx, Node: int(p.node)}
}

// Clique returns ζ, the number of distinct peers addressed so far: a peer
// reached through both endpoints — a get and a fetch-and-add to one rank —
// counts once.
func (rt *Runtime) Clique() int {
	n := 0
	for pos := 0; pos < rt.peers.size(); pos++ {
		if rt.peers.at(pos).flags&(peerData|peerSvc) != 0 {
			n++
		}
	}
	return n
}
