package armci

import (
	"math/bits"
	"slices"

	"repro/internal/pami"
	"repro/internal/sim"
)

// peer is one record of a rank's clique table: what the rank keeps about
// one peer it has addressed — the endpoints it created to the peer and
// its writes to the peer not yet known complete (the fence counts). The
// peer's consistency status is the record's row of clique.cs.
type peer struct {
	data, svc pami.Endpoint // valid once flags has peerData, peerSvc
	puts      int32         // RDMA puts not yet known remote-visible
	ams       int32         // AM writes (fallback put, acc) awaiting ack
	rank      int32
	flags     uint8 // peerKnown, and which endpoints exist
}

const (
	peerKnown uint8 = 1 << iota // the record is in use
	peerData                    // data endpoint (context 0) created
	peerSvc                     // service endpoint created
)

// clique is a rank's per-peer state, one record per peer in first-contact
// order: ζ records, never p. The first record lives in the runtime itself,
// so a rank that talks to one peer — every worker hammering the counter's
// owner — allocates nothing for it; the rest live in more, found through
// index, an open-addressed table of (rank, position) pairs, by one probe
// sequence that reads no record. Positions are stable; a *peer is valid
// until the next record is added, so code that blocks between a lookup
// and a write keeps the position, not the pointer.
//
// cs is the consistency status (§III.E), a row of columns bytes per
// position: column 0 is the peer's cs_tgt, column 1+k its cs_mr for
// allocation key k — Eq. 5's σ·ζ, not σ·p. It is nil until a status is
// first written, and from then on holds a row for every record, so the
// column count is len(cs) over the record count. dirty counts the records
// whose fence counts are not both zero.
type clique struct {
	first peer
	more  []peer // positions 1.., nil until a second peer
	index []indexEntry
	cs    []uint8
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
	if c.index == nil {
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
	rec := peer{rank: int32(rank), flags: peerKnown}
	if c.first.flags == 0 {
		c.first = rec // no record yet, so no status matrix either
		return 0
	}
	cols := c.columns()
	if c.more == nil {
		c.more = make([]peer, 0, chunkLen)
	}
	c.more = append(c.more, rec)
	pos := len(c.more)
	if 2*pos > len(c.index) {
		c.reindex(max(2*chunkLen, 2*len(c.index)))
	} else {
		c.place(pos)
	}
	if c.cs != nil && cap(c.cs) < len(c.cs)+cols {
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

// reindex rebuilds index with n slots, a power of two.
func (c *clique) reindex(n int) {
	c.index = make([]indexEntry, n)
	for pos := 1; pos <= len(c.more); pos++ {
		c.place(pos)
	}
}

// columns returns the status columns: 1 + the allocation keys that have
// a byte in every row, or 0 before the first status.
func (c *clique) columns() int {
	if c.cs == nil {
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
		m := make([]uint8, c.size()*wide, (1+cap(c.more))*wide)
		for i := 0; n > 0 && i < c.size(); i++ {
			copy(m[i*wide:], c.cs[i*n:(i+1)*n])
		}
		c.cs, n = m, wide
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

// endpoint returns (creating on first use) the endpoint addressing a
// rank's data context (svc false: context 0) or its remote-service context.
// The two are separate even when they name the same context (ρ = 1), and
// each is created, and charged, once.
func (rt *Runtime) endpoint(th *sim.Thread, rank int, svc bool) pami.Endpoint {
	pos := rt.peers.record(rank)
	p := rt.peers.at(pos)
	switch {
	case svc && p.flags&peerSvc != 0:
		return p.svc
	case !svc && p.flags&peerData != 0:
		return p.data
	}
	ctx := 0
	if svc {
		ctx = rt.W.svcIdx
	}
	ep := rt.C.CreateEndpoint(th, rank, ctx) // sleeps: another of the rank's threads may add records
	p = rt.peers.at(pos)
	if svc {
		p.svc = ep
		p.flags |= peerSvc
	} else {
		p.data = ep
		p.flags |= peerData
	}
	rt.Stats[statEpCreated]++
	return ep
}

// epData returns the RDMA endpoint for a rank.
func (rt *Runtime) epData(th *sim.Thread, rank int) pami.Endpoint {
	return rt.endpoint(th, rank, false)
}

// epSvc returns the endpoint addressing a rank's remote-service context.
func (rt *Runtime) epSvc(th *sim.Thread, rank int) pami.Endpoint {
	return rt.endpoint(th, rank, true)
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

// noteWrites records outstanding writes to rank in its fence counts
// (clique.addWrites); AllFence visits the records whose counts are not
// both zero.
func (rt *Runtime) noteWrites(rank, puts, ams int) {
	rt.peers.addWrites(rt.peers.record(rank), puts, ams)
}
