package armci

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// newExchange builds an Allocation with its exchange filled in, the way
// a Malloc generation leaves one behind.
func newExchange(addrs []mem.Addr, reg []bool, size int) *Allocation {
	a := &Allocation{Bytes: size, addrs: addrs, reg: reg}
	for _, ok := range reg {
		if ok {
			a.nreg.Add(1)
		}
	}
	return a
}

// newTestCache is a region cache for rank self on a clique table of its
// own, outside any world.
func newTestCache(capacity, self int) cacheView {
	return cacheView{&regionCache{}, &clique{}, self, capacity}
}

// at returns rank's clique position, adding a record as the operation
// that reaches the cache for rank does first.
func (rc cacheView) at(rank int) int { return rc.peers.record(rank) }

// entries lists rank's cached regions in bucket order, implied ones
// written out, without touching the rank.
func (rc cacheView) entries(rank int) []remoteRegion {
	var out []remoteRegion
	if pos := rc.peers.find(rank); pos >= 0 && rc.peers.at(pos).flags&peerBucket != 0 {
		for _, e := range rc.peers.at(pos).bucket {
			out = append(out, remoteRegion{rank: rank, base: e.base, size: e.size, freq: e.freq})
		}
		return out
	}
	for i := range rc.blocks {
		if b := &rc.blocks[i]; rc.seeds(b, rank) {
			out = append(out, remoteRegion{rank: rank, base: b.a.addrs[rank], size: b.a.Bytes, freq: 1})
		}
	}
	return out
}

// diffWorld drives a regionCache and two dense references through one op
// sequence: dense takes exchanges through its batch paths (arena, heap
// replay), naive takes them as the insert-per-peer loop that defines them.
type diffWorld struct {
	t     *testing.T
	rng   *rand.Rand
	procs int
	self  int
	rc    cacheView
	dense *denseCache
	naive *denseCache

	// A toy allocator per rank: fixed-stride slots, lowest free one first,
	// so live allocations never share a base and freed bases come back.
	slots [][]bool
	live  []*diffAlloc
	freed []*diffAlloc
}

type diffAlloc struct {
	*Allocation
	slot []int
}

const diffStride = 0x1000

func newDiffWorld(t *testing.T, seed int64, procs, capacity int) *diffWorld {
	rng := rand.New(rand.NewSource(seed))
	self := rng.Intn(procs)
	return &diffWorld{
		t: t, rng: rng, procs: procs, self: self,
		rc:    newTestCache(capacity, self),
		dense: newDenseCache(capacity, procs),
		naive: newDenseCache(capacity, procs),
		slots: make([][]bool, procs),
	}
}

func (w *diffWorld) exchange() string {
	a := &diffAlloc{slot: make([]int, w.procs)}
	size := 0x100 + w.rng.Intn(diffStride-0x100)
	addrs := make([]mem.Addr, w.procs)
	reg := make([]bool, w.procs)
	unregPct := []int{0, 0, 10, 50}[w.rng.Intn(4)]
	for r := range addrs {
		s := 0
		for s < len(w.slots[r]) && w.slots[r][s] {
			s++
		}
		if s == len(w.slots[r]) {
			w.slots[r] = append(w.slots[r], false)
		}
		w.slots[r][s] = true
		a.slot[r] = s
		addrs[r] = mem.Addr(diffStride * (s + 1))
		reg[r] = w.rng.Intn(100) >= unregPct
	}
	a.Allocation = newExchange(addrs, reg, size)
	w.live = append(w.live, a)

	w.rc.insertExchange(a.Allocation)
	w.dense.insertExchange(w.self, addrs, reg, size)
	for r := range addrs {
		if reg[r] && r != w.self {
			w.naive.insert(r, addrs[r], size)
		}
	}
	return fmt.Sprintf("exchange size %#x unreg %d%%", size, unregPct)
}

func (w *diffWorld) free() string {
	i := w.rng.Intn(len(w.live))
	a := w.live[i]
	w.live = append(w.live[:i], w.live[i+1:]...)
	w.freed = append(w.freed, a)
	for r, s := range a.slot {
		w.slots[r][s] = false
	}
	w.rc.purgeExchange(a.Allocation)
	for r, base := range a.addrs {
		w.dense.purge(r, base)
		w.naive.purge(r, base)
	}
	return fmt.Sprintf("free #%d", i)
}

// someRegion picks a rank and a region to aim at: a live allocation's
// block mostly, a freed one's (its base may be live again under another
// allocation) or nothing's now and then.
func (w *diffWorld) someRegion() (rank int, base mem.Addr, size int) {
	rank = w.rng.Intn(w.procs)
	switch k := w.rng.Intn(10); {
	case k < 7 && len(w.live) > 0:
		a := w.live[w.rng.Intn(len(w.live))]
		return rank, a.addrs[rank], a.Bytes
	case k < 9 && len(w.freed) > 0:
		a := w.freed[w.rng.Intn(len(w.freed))]
		return rank, a.addrs[rank], a.Bytes
	}
	return rank, mem.Addr(diffStride * (1 + w.rng.Intn(8))), 0x100 + w.rng.Intn(diffStride)
}

func (w *diffWorld) lookup() string {
	rank, base, size := w.someRegion()
	addr, n := base, size
	switch w.rng.Intn(4) {
	case 0: // inside
		off := w.rng.Intn(size)
		addr, n = base+mem.Addr(off), 1+w.rng.Intn(size-off)
	case 1: // spanning past the region's end, maybe into the next slot
		addr, n = base+mem.Addr(size/2), size+w.rng.Intn(diffStride)
	}
	got := w.rc.lookup(w.rc.at(rank), addr, n)
	if d, nv := w.dense.lookup(rank, addr, n), w.naive.lookup(rank, addr, n); got != d || got != nv {
		w.t.Fatalf("lookup(%d, %#x, %#x) = %v, dense %v, naive %v", rank, uint64(addr), n, got, d, nv)
	}
	if !got && w.rng.Intn(2) == 0 {
		// What an AM miss does next: the owner answers with its covering
		// registration and the initiator inserts that.
		w.insert(rank, base, size)
		return fmt.Sprintf("miss+insert(%d, %#x, %#x)", rank, uint64(base), size)
	}
	return fmt.Sprintf("lookup(%d, %#x, %#x) = %v", rank, uint64(addr), n, got)
}

func (w *diffWorld) insert(rank int, base mem.Addr, size int) {
	w.rc.insert(w.rc.at(rank), base, size)
	w.dense.insert(rank, base, size)
	w.naive.insert(rank, base, size)
}

// insertOdd inserts a region nobody exchanged: one spanning several slots
// (so it overlaps seeded regions after it or before it in the bucket), or
// a second copy of a base already cached.
func (w *diffWorld) insertOdd() string {
	rank, base, size := w.someRegion()
	if w.rng.Intn(2) == 0 {
		size += diffStride * (1 + w.rng.Intn(3))
	}
	w.insert(rank, base, size)
	return fmt.Sprintf("insert(%d, %#x, %#x)", rank, uint64(base), size)
}

func (w *diffWorld) purgeRank() string {
	rank := w.rng.Intn(w.procs)
	w.rc.purgeRank(w.rc.at(rank))
	w.dense.purgeRank(rank)
	w.naive.purgeRank(rank)
	return fmt.Sprintf("purgeRank(%d)", rank)
}

func (w *diffWorld) step(maxLive int) string {
	switch k := w.rng.Intn(100); {
	case k < 12 && len(w.live) < maxLive:
		return w.exchange()
	case k < 20 && len(w.live) > 0:
		return w.free()
	case k < 30:
		return w.insertOdd()
	case k < 33:
		return w.purgeRank()
	}
	return w.lookup()
}

func (w *diffWorld) compare(op string) {
	t := w.t
	t.Helper()
	for name, ref := range map[string]*denseCache{"dense": w.dense, "naive": w.naive} {
		if w.rc.total != ref.Len() || w.rc.Hits != ref.Hits || w.rc.Misses != ref.Misses || w.rc.Evicted != ref.Evicted {
			t.Fatalf("after %s: len/hits/misses/evicted = %d/%d/%d/%d, %s %d/%d/%d/%d", op,
				w.rc.total, w.rc.Hits, w.rc.Misses, w.rc.Evicted,
				name, ref.Len(), ref.Hits, ref.Misses, ref.Evicted)
		}
		for rank := 0; rank < w.procs; rank++ {
			got, want := w.rc.entries(rank), ref.byRank[rank]
			if len(got) != len(want) {
				t.Fatalf("after %s: rank %d holds %v, %s %v", op, rank, got, name, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("after %s: rank %d slot %d is %+v, %s %+v", op, rank, i, got[i], name, want[i])
				}
			}
		}
	}
	// The block bookkeeping the exactness argument rests on.
	total := 0
	for rank := 0; rank < w.procs; rank++ {
		total += len(w.rc.entries(rank))
	}
	if total != w.rc.total {
		t.Fatalf("after %s: total %d, entries %d", op, w.rc.total, total)
	}
	for i := range w.rc.blocks {
		b, implied := &w.rc.blocks[i], 0
		for rank := 0; rank < w.procs; rank++ {
			if w.rc.implies(b, rank) {
				implied++
			}
		}
		if implied != b.live {
			t.Fatalf("after %s: block %d live %d, implies %d", op, i, b.live, implied)
		}
	}
}

// TestRegionCacheMatchesDense drives the seed-block cache and the dense
// reference through the same random histories and compares the complete
// state after every operation. It also holds the dense cache's batch
// exchange paths to the insert loop they stand for.
func TestRegionCacheMatchesDense(t *testing.T) {
	const procs = 24
	const maxLive = 4
	regimes := []struct {
		name       string
		procs, cap int
	}{
		{"roomy", procs, 10 * procs * maxLive}, // nothing is ever evicted
		{"one-exchange", procs, procs - 1},     // the first exchange fits exactly
		{"tight", procs, 9},                    // every exchange replays evictions
		{"single", procs, 1},
		// Every exchange is several times the cap, so the replay's window
		// slides over long runs of peers; exchanges with unregistered
		// ranks (what MaxRegions leaves) take the prefix-count path.
		{"wide", 160, 24},
	}
	ops := 12000
	if testing.Short() {
		ops = 3000
	}
	for _, reg := range regimes {
		reg := reg
		t.Run(reg.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				w := newDiffWorld(t, seed*7919+int64(reg.cap), reg.procs, reg.cap)
				for i := 0; i < ops/4; i++ {
					op := fmt.Sprintf("seed %d op %d %s", seed, i, w.step(maxLive))
					w.compare(op)
				}
			}
		})
	}
}
