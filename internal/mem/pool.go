package mem

import (
	"math/bits"
	"sync"
	"unsafe"
)

// PoolMin is the smallest buffer class: class 0 serves every n <= 64, and
// class i holds PoolMin<<i bytes. Below Go's 32 KiB large-object boundary
// the size-class allocator is not as cheap as a free list: on a 2-core
// host, recycling only the RDMA payloads under 32 KiB gave rdma_stream
// 15 % fewer allocations per operation, 9 % less resident memory and a
// 2-5 % lower operation cost.
const PoolMin = 64

// poolClasses is how many buffer classes there are, 64 B to 64 MiB. A
// length past the largest class is a plain make, which Return ignores.
const poolClasses = 21

// KeepMax is the largest class a stock keeps once its world has ended
// (Stocks.Trim): what outlives a world is small, so a long-lived owner
// never pins a large buffer. Larger classes recycle within a world only.
// It is the largest payload a simd ping job moves (64 KiB), so a world
// of those remakes no class.
const KeepMax = 64 << 10

// Poison is the byte Return fills a buffer with under the race detector
// (raceEnabled), so that a reader which outlives the buffer's recycling
// reads bytes no sender wrote.
const Poison = 0xdb

// Stock is the shared side of a free list of *T: what lanes give back and
// take in batches, under its mutex. It belongs to an owner that outlives
// the worlds it lends it to, and no collection empties it.
type Stock[T any] struct {
	mu     sync.Mutex
	items  []*T
	batch  int   // how many items a lane takes or gives at once
	cut    bool  // an empty stock makes a chunk of batch items
	chunks [][]T // every chunk made, for Reclaim
}

// Init sets how many items a lane takes from s or gives back at once and,
// with cut, lets an empty s make a chunk of that many, so that Get never
// returns nil and a world that starts on an empty stock makes one object
// per batch, not one per item.
func (s *Stock[T]) Init(batch int, cut bool) { s.batch, s.cut = batch, cut }

// Drop forgets every item, for the collector. Like Reclaim, it runs
// between worlds, when no lane takes or gives.
func (s *Stock[T]) Drop() {
	clear(s.items)
	s.items = s.items[:0]
}

// Reclaim makes every item s has cut free again, zeroed: the world that
// used them has ended, so none is in use any more, not even one it never
// gave back (one still in flight when it stopped). Every lane's list must be
// dropped first (Free.Drop): its items are among them.
func (s *Stock[T]) Reclaim() {
	s.items = s.items[:0]
	for _, c := range s.chunks {
		clear(c)
		for i := range c {
			s.items = append(s.items, &c[i])
		}
	}
}

// Chunks returns every chunk s has cut: what an owner reads to salvage
// what its items hold before Reclaim zeroes them.
func (s *Stock[T]) Chunks() [][]T { return s.chunks }

// Cut returns how many items s has cut, all of which it keeps.
func (s *Stock[T]) Cut() int { return len(s.chunks) * s.batch }

// Free is one lane's free list of *T, linked to its stock (Link) before
// use. It takes no lock, because only its lane's events use it: Get takes
// a batch from its stock when the list is empty, and Put gives one back
// when the list holds two.
type Free[T any] struct {
	items []*T
	stock *Stock[T]
}

// Link ties f to its stock.
func (f *Free[T]) Link(s *Stock[T]) { f.stock = s }

// Get returns a recycled item, or nil when neither the list nor its stock
// holds one and the stock cuts none.
func (f *Free[T]) Get() *T {
	n := len(f.items)
	if n == 0 {
		if n = f.refill(); n == 0 {
			return nil
		}
	}
	p := f.items[n-1]
	f.items[n-1] = nil // a world's items must not keep it alive from the list
	f.items = f.items[:n-1]
	return p
}

// Put hands p back for reuse.
func (f *Free[T]) Put(p *T) {
	if b := f.stock.batch; len(f.items) >= 2*b {
		f.give(b)
	} else if f.items == nil {
		f.items = make([]*T, 0, 2*b) // all the list will ever hold
	}
	f.items = append(f.items, p)
}

// Drop forgets every item on the list.
func (f *Free[T]) Drop() {
	clear(f.items)
	f.items = f.items[:0]
}

// Flush gives every item on the list back to its stock.
func (f *Free[T]) Flush() { f.give(len(f.items)) }

// refill takes up to a batch from the stock and returns how many it took.
func (f *Free[T]) refill() int {
	s := f.stock
	s.mu.Lock()
	if len(s.items) == 0 && s.cut {
		c := make([]T, s.batch)
		s.chunks = append(s.chunks, c)
		for i := range c {
			s.items = append(s.items, &c[i])
		}
	}
	from := max(0, len(s.items)-s.batch)
	if f.items == nil && from < len(s.items) {
		f.items = make([]*T, 0, 2*s.batch)
	}
	f.items = append(f.items, s.items[from:]...)
	clear(s.items[from:])
	s.items = s.items[:from]
	s.mu.Unlock()
	return len(f.items)
}

// give moves the list's last n items to the stock.
func (f *Free[T]) give(n int) {
	if n == 0 {
		return
	}
	s, from := f.stock, len(f.items)-n
	s.mu.Lock()
	s.items = append(s.items, f.items[from:]...)
	s.mu.Unlock()
	clear(f.items[from:])
	f.items = f.items[:from]
}

// Classes is one lane's payload buffers, a free list per class, each
// buffer held as a pointer to its first byte: a pointer to a list costs
// one word where a slice header would take three. It is linked to a
// world's Stocks (Link) before use.
type Classes [poolClasses]Free[byte]

// Stocks is the shared side of the Classes of every lane of a world.
type Stocks [poolClasses]Stock[byte]

// Init sets each class's batch: as many buffers as fill 64 KiB, at least
// one and at most 16, so that what a lane holds is bounded in bytes.
func (s *Stocks) Init() {
	for i := range s {
		s[i].Init(min(max((64<<10)/(PoolMin<<i), 1), 16), false)
	}
}

// Trim drops every class above KeepMax: its world has ended.
func (s *Stocks) Trim() {
	for i := poolClass(KeepMax) + 1; i < len(s); i++ {
		s[i].Drop()
	}
}

// Link ties each class to its stock.
func (c *Classes) Link(s *Stocks) {
	for i := range c {
		c[i].Link(&s[i])
	}
}

// Flush gives every class's buffers back to its stock.
func (c *Classes) Flush() {
	for i := range c {
		c[i].Flush()
	}
}

// poolClass returns the index of the smallest class holding n bytes.
func poolClass(n int) int {
	if n <= PoolMin {
		return 0
	}
	return bits.Len(uint(n-1)) - bits.Len(PoolMin-1)
}

// Buf returns a buffer of length n whose contents are unspecified, for the
// caller to fill and hand back with Return once nothing reads it any more:
// a recycled buffer of n's power-of-two class, or a fresh one of that
// capacity. A length past the largest class is a plain make.
func (c *Classes) Buf(n int) []byte {
	k := poolClass(n)
	if k >= poolClasses {
		return make([]byte, n)
	}
	if p := c[k].Get(); p != nil {
		return unsafe.Slice(p, PoolMin<<k)[:n]
	}
	return make([]byte, n, PoolMin<<k)
}

// Borrow returns a copy of [a, a+n) of s in a Buf, which the caller hands
// back with Return once nothing reads it any more.
func (c *Classes) Borrow(s *Space, a Addr, n int) []byte {
	b := c.Buf(n)
	copy(b, s.Bytes(a, n))
	return b
}

// Return hands a buffer back for reuse. b must be its caller's outright —
// a Buf, a Borrow or its own make, never a view into a Space — and
// neither the caller nor anyone it shared b with may touch b afterwards:
// the next Buf of its class may overwrite it. A buffer whose capacity is
// not one of the classes is left to the garbage collector.
func (c *Classes) Return(b []byte) {
	n := cap(b)
	if n < PoolMin || n&(n-1) != 0 || poolClass(n) >= poolClasses {
		return
	}
	if raceEnabled {
		b = b[:n]
		for i := range b {
			b[i] = Poison
		}
	}
	c[poolClass(n)].Put(unsafe.SliceData(b))
}
