package obs

import "sync/atomic"

// Counter is a monotonically growing sum: what Add gave it plus the
// current value of every field attached to it (Registry.Attach). Nearly
// every attached counter reads one field, so the first is a field and only
// a second one makes a slice. The nil handle is a no-op.
type Counter struct {
	v     int64
	first *uint64
	more  []*uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v += delta
}

// Value returns the accumulated sum, attached fields read now (0 on a nil
// handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	v := c.v
	if c.first != nil {
		v += int64(atomic.LoadUint64(c.first))
		for _, p := range c.more {
			v += int64(atomic.LoadUint64(p))
		}
	}
	return v
}

// sample folds the attached fields' current values into the counter and
// drops them, so the counter no longer keeps what they point into alive.
func (c *Counter) sample() {
	c.v, c.first, c.more = c.Value(), nil, nil
}

// Gauge is a last-or-max value. The nil handle is a no-op.
type Gauge struct {
	v     int64
	set   bool
	isMax bool // last write style; Registry.Merge replays it cross-run
}

// Set records v as the current value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v, g.set, g.isMax = v, true, false
}

// SetMax records v only if it exceeds the current value (high-water mark
// semantics, e.g. worst progress-starvation interval observed).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	g.isMax = true
	if !g.set || v > g.v {
		g.v, g.set = v, true
	}
}

// merge replays other's last write into g, as Registry.Merge documents.
func (g *Gauge) merge(other *Gauge) {
	if other.isMax {
		g.SetMax(other.v)
	} else {
		g.Set(other.v)
	}
}

// Value returns the gauge value (0 on a nil or never-set handle).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram is a fixed-bucket histogram over int64 samples (virtual-time
// durations, byte counts). A sample v lands in the first bucket whose
// bound satisfies v <= bound; samples above every bound land in the
// overflow bucket. The nil handle is a no-op.
type Histogram struct {
	bounds []Time   // strictly increasing inclusive upper bounds
	counts []uint64 // len(bounds)+1; last is overflow
	sum    int64
	n      uint64
}

// NewHistogram builds a histogram with the given inclusive upper bounds,
// which must be strictly increasing and non-empty. The histogram keeps
// the caller's slice, not a copy, so histograms registered with one
// bounds value (DefaultLatencyBounds, say) share it: bounds must not be
// modified after registration.
func NewHistogram(bounds []Time) *Histogram {
	checkBounds(bounds)
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// checkBounds panics unless bounds is non-empty and strictly increasing.
func checkBounds(bounds []Time) {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
}

// ExpBounds returns n exponentially spaced bounds starting at first and
// multiplying by factor, for latency-style distributions.
func ExpBounds(first Time, factor float64, n int) []Time {
	if first <= 0 || factor <= 1 || n <= 0 {
		panic("obs: invalid exponential bounds")
	}
	out := make([]Time, n)
	v := float64(first)
	for i := range out {
		out[i] = Time(v)
		v *= factor
	}
	return out
}

// DefaultLatencyBounds covers 100 ns .. ~26 ms in powers of two — the
// virtual-time range of everything from a single hop to a full SCF task.
var DefaultLatencyBounds = ExpBounds(100, 2, 19)

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.n++
	h.sum += v
	// Binary search the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo]++
}

// Count returns the number of samples (0 on a nil handle).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the sample total (0 on a nil handle).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the sample mean (0 when empty or nil).
func (h *Histogram) Mean() float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Buckets returns copies of the bounds and per-bucket counts; the counts
// slice has one extra trailing overflow entry.
func (h *Histogram) Buckets() (bounds []Time, counts []uint64) {
	if h == nil {
		return nil, nil
	}
	return append([]Time(nil), h.bounds...), append([]uint64(nil), h.counts...)
}

// store hands out a registry's handles and bucket arrays from chunks, so
// the handles a layer makes together (a lane's 28 operation counters and
// 7 latency histograms) cost a few allocations instead of one each.
type store struct {
	counters chunk[Counter]
	gauges   chunk[Gauge]
	hists    chunk[Histogram]
	counts   chunk[uint64]
	fams     chunk[family]
}

func (s *store) counter() *Counter      { return &s.counters.take(1, 16)[0] }
func (s *store) gauge() *Gauge          { return &s.gauges.take(1, 4)[0] }
func (s *store) histogram() *Histogram  { return &s.hists.take(1, 8)[0] }
func (s *store) buckets(n int) []uint64 { return s.counts.take(n, 128) }

// chunk hands out zeroed values of T from slices that grow with what it
// has handed out: each new slice is as long as everything before it, and
// at least least long. A value keeps its whole slice reachable, so the
// storage a chunk pins is at most about twice what it has handed out.
type chunk[T any] struct {
	free []T
	made int
}

// take returns the next n values, their capacity capped at n.
func (c *chunk[T]) take(n, least int) []T {
	if len(c.free) < n {
		c.free = make([]T, max(n, least, c.made))
	}
	s := c.free[:n:n]
	c.free = c.free[n:]
	c.made += n
	return s
}
