package sim

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestSeriesMoments(t *testing.T) {
	s := NewSeries(false)
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	if s.N() != 4 || s.Sum() != 10 || s.Mean() != 2.5 {
		t.Fatalf("n=%d sum=%v mean=%v", s.N(), s.Sum(), s.Mean())
	}
	if s.Min() != 1 || s.Max() != 4 {
		t.Fatalf("min=%v max=%v", s.Min(), s.Max())
	}
	want := math.Sqrt(1.25)
	if math.Abs(s.StdDev()-want) > 1e-12 {
		t.Fatalf("sd=%v want %v", s.StdDev(), want)
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := NewSeries(false)
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.StdDev() != 0 {
		t.Fatal("empty series should report zeros")
	}
}

func TestSeriesPercentile(t *testing.T) {
	s := NewSeries(true)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if p := s.Percentile(50); math.Abs(p-50.5) > 1e-9 {
		t.Fatalf("p50=%v", p)
	}
	if p := s.Percentile(0); p != 1 {
		t.Fatalf("p0=%v", p)
	}
	if p := s.Percentile(100); p != 100 {
		t.Fatalf("p100=%v", p)
	}
}

func TestSeriesPercentileWithoutRawPanics(t *testing.T) {
	s := NewSeries(false)
	s.Add(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Percentile(50)
}

func TestSeriesBoundsProperty(t *testing.T) {
	f := func(vals []float64) bool {
		s := NewSeries(false)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e15 {
				continue // accumulator targets latencies/sizes, not extremes
			}
			s.Add(v)
		}
		if s.N() == 0 {
			return true
		}
		m := s.Mean()
		return m >= s.Min()-1e-9*math.Abs(s.Min()) && m <= s.Max()+1e-9*math.Abs(s.Max())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCounters(t *testing.T) {
	var c Counters
	c.Inc("fences", 2)
	c.Inc("fences", 3)
	c.Inc("hits", 1)
	if c.Get("fences") != 5 || c.Get("hits") != 1 || c.Get("missing") != 0 {
		t.Fatal("bad counter values")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "fences" || names[1] != "hits" {
		t.Fatalf("names=%v", names)
	}
	snap := c.Snapshot()
	c.Inc("fences", 1)
	if snap["fences"] != 5 {
		t.Fatal("snapshot not a copy")
	}
}

// TestCountersMatchMap: the slice-backed bag reports what the map it
// replaced would, over a random history — including names only ever
// incremented by zero, which a map keeps too.
func TestCountersMatchMap(t *testing.T) {
	names := []string{"rmw", "fence", "get.rdma", "put.am", "ep.created", "malloc",
		"regioncache.hit", "regioncache.miss", "strided.chunks", "conflict.avoided", "dup.am", "acc"}
	rng := NewRNG(7)
	var c Counters
	ref := map[string]int64{}
	for i := 0; i < 200; i++ {
		name, delta := names[rng.Intn(len(names))], int64(rng.Intn(5))-1
		c.Inc(name, delta)
		ref[name] += delta
		if probe := names[rng.Intn(len(names))]; c.Get(probe) != ref[probe] {
			t.Fatalf("op %d: Get(%q) = %d, map has %d", i, probe, c.Get(probe), ref[probe])
		}
	}
	if got := c.Snapshot(); !reflect.DeepEqual(got, ref) {
		t.Fatalf("Snapshot = %v, map = %v", got, ref)
	}
	got := c.Names()
	if !sort.StringsAreSorted(got) || len(got) != len(ref) {
		t.Fatalf("Names = %v: want the map's %d keys, sorted", got, len(ref))
	}
	for _, n := range got {
		if _, ok := ref[n]; !ok {
			t.Fatalf("Names has %q, the map does not", n)
		}
	}
}

func TestFormatTime(t *testing.T) {
	cases := map[Time]string{
		5:               "5ns",
		2500:            "2.50us",
		3 * Millisecond: "3.00ms",
		12 * Second:     "12.000s",
	}
	for in, want := range cases {
		if got := FormatTime(in); got != want {
			t.Fatalf("FormatTime(%d)=%q want %q", in, got, want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if Micros(2.89) != 2890 {
		t.Fatal("Micros")
	}
	if ToMicros(2890) != 2.89 {
		t.Fatal("ToMicros")
	}
	if ToSeconds(Second) != 1 {
		t.Fatal("ToSeconds")
	}
}
