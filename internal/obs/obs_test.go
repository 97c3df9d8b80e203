package obs

import (
	"strings"
	"testing"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	// Handle accessors on a nil registry return nil handles, and every
	// handle method tolerates nil.
	c := r.Counter("x")
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	g := r.Gauge("y")
	g.Set(3)
	g.SetMax(9)
	if g.Value() != 0 {
		t.Fatalf("nil gauge value = %d", g.Value())
	}
	h := r.Histogram("z", DefaultLatencyBounds)
	h.Observe(7)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram accumulated")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("nil registry wrote metrics: %q", sb.String())
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := New()
	c := r.Counter("a/n")
	c.Add(2)
	c.Add(3)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	if r.Counter("a/n") != c {
		t.Fatal("same name must return the same counter")
	}

	g := r.Gauge("a/g")
	g.Set(10)
	g.SetMax(7) // below current: kept
	if g.Value() != 10 {
		t.Fatalf("gauge after SetMax(7) = %d", g.Value())
	}
	g.SetMax(12)
	if g.Value() != 12 {
		t.Fatalf("gauge after SetMax(12) = %d", g.Value())
	}
}

func TestGaugeSetMaxFromZero(t *testing.T) {
	// SetMax must record the first observation even if it is <= 0-ish
	// initial state semantics: an unset gauge takes any first value.
	r := New()
	g := r.Gauge("g")
	g.SetMax(0)
	if g.Value() != 0 {
		t.Fatalf("gauge = %d", g.Value())
	}
	g.SetMax(-5) // never goes below an existing value
	if g.Value() != 0 {
		t.Fatalf("gauge = %d", g.Value())
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := New()
	h := r.Histogram("h", []Time{10, 100})
	for _, v := range []int64{5, 10, 11, 100, 101} {
		h.Observe(v)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 2 || bounds[0] != 10 || bounds[1] != 100 {
		t.Fatalf("bounds = %v", bounds)
	}
	// Bounds are inclusive upper edges: {5,10} <= 10, {11,100} <= 100,
	// {101} overflows.
	if counts[0] != 2 || counts[1] != 2 || counts[2] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if h.Count() != 5 || h.Sum() != 227 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	if want := 227.0 / 5; h.Mean() != want {
		t.Fatalf("mean = %v", h.Mean())
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]Time{nil, {}, {10, 10}, {100, 10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bounds %v: expected panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestHistogramKeepsOriginalBounds(t *testing.T) {
	r := New()
	h1 := r.Histogram("h", []Time{10, 100})
	h2 := r.Histogram("h", []Time{1, 2, 3})
	if h1 != h2 {
		t.Fatal("same name must return the same histogram")
	}
	bounds, _ := h1.Buckets()
	if len(bounds) != 2 {
		t.Fatalf("bounds = %v", bounds)
	}
}

func TestExpBounds(t *testing.T) {
	b := ExpBounds(100, 2, 4)
	want := []Time{100, 200, 400, 800}
	if len(b) != len(want) {
		t.Fatalf("bounds = %v", b)
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", b, want)
		}
	}
}
