package sim

import (
	"fmt"
	"math"
	"sort"
)

// Series accumulates scalar samples (latencies, sizes, counts) with O(1)
// space for moments and optional retention of raw values for percentiles.
type Series struct {
	n          int
	sum, sumSq float64
	min, max   float64
	keep       bool
	raw        []float64
}

// NewSeries returns an empty accumulator. If keepRaw is true, raw samples
// are retained so Percentile is available.
func NewSeries(keepRaw bool) *Series {
	return &Series{min: math.Inf(1), max: math.Inf(-1), keep: keepRaw}
}

// Add records one sample.
func (s *Series) Add(v float64) {
	s.n++
	s.sum += v
	s.sumSq += v * v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	if s.keep {
		s.raw = append(s.raw, v)
	}
}

// AddTime records a virtual duration in microseconds.
func (s *Series) AddTime(t Time) { s.Add(ToMicros(t)) }

// N returns the sample count.
func (s *Series) N() int { return s.n }

// Sum returns the sample total.
func (s *Series) Sum() float64 { return s.sum }

// Mean returns the sample mean (0 when empty).
func (s *Series) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Min returns the smallest sample (0 when empty).
func (s *Series) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest sample (0 when empty).
func (s *Series) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// StdDev returns the population standard deviation.
func (s *Series) StdDev() float64 {
	if s.n == 0 {
		return 0
	}
	m := s.Mean()
	v := s.sumSq/float64(s.n) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Percentile returns the p-th percentile (0..100) of the retained samples.
// It panics if the series was created without raw retention.
func (s *Series) Percentile(p float64) float64 {
	if !s.keep {
		panic("sim: Percentile on series without raw retention")
	}
	if len(s.raw) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.raw...)
	sort.Float64s(sorted)
	idx := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return sorted[lo]
	}
	frac := idx - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// String renders a one-line summary.
func (s *Series) String() string {
	return fmt.Sprintf("n=%d mean=%.3f min=%.3f max=%.3f sd=%.3f",
		s.n, s.Mean(), s.Min(), s.Max(), s.StdDev())
}

// Counters is a named-counter bag used by the runtime layers to expose
// protocol statistics (fences issued, cache hits, fallback activations...).
// A runtime counts under a dozen names, all string literals, so the bag is
// a short slice searched linearly — no map to build per rank, no hash per
// increment. The zero value is an empty bag.
type Counters struct {
	c []counter
}

type counter struct {
	name string
	v    int64
}

func (c *Counters) find(name string) *counter {
	for i := range c.c {
		if c.c[i].name == name {
			return &c.c[i]
		}
	}
	return nil
}

// Inc adds delta to the named counter, creating it on first use.
func (c *Counters) Inc(name string, delta int64) {
	if p := c.find(name); p != nil {
		p.v += delta
		return
	}
	if c.c == nil {
		c.c = make([]counter, 0, 8)
	}
	c.c = append(c.c, counter{name, delta})
}

// Get returns the named counter's value.
func (c *Counters) Get(name string) int64 {
	if p := c.find(name); p != nil {
		return p.v
	}
	return 0
}

// Names returns the counter names in sorted order.
func (c *Counters) Names() []string {
	names := make([]string, 0, len(c.c))
	for i := range c.c {
		names = append(names, c.c[i].name)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns a copy of all counters.
func (c *Counters) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(c.c))
	for i := range c.c {
		out[c.c[i].name] = c.c[i].v
	}
	return out
}
