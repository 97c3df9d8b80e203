package obs

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// slab is a test layer's per-rank values: series i carries labels(i) and
// exists while v[i] is not 0.
type slab struct {
	labels func(i int) [maxLabels]int32
	v      []int64
}

func (s *slab) at(i int) (Series, bool) { return Series{Labels: s.labels(i), V: s.v[i]}, s.v[i] != 0 }

// fullName is the registry name a named handle of series s of family name
// with label names keys carries: "name{k1=v1,k2=v2}".
func fullName(name string, keys []string, s Series) string {
	parts := make([]string, len(keys))
	for j, k := range keys {
		parts[j] = fmt.Sprintf("%s=%d", k, s.Labels[j])
	}
	return name + "{" + strings.Join(parts, ",") + "}"
}

// TestFamilyExportsAsNamed: a family's series export, snapshot and merge
// to the bytes the same series made as named handles do — wherever their
// full names sort among plain neighbours (ranks 2 and 10, "a" before or
// after "a1"), with two slabs of one name whose labels overlap, and with
// slabs written after they were registered and after their registry was
// merged, which the parent does not see.
func TestFamilyExportsAsNamed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fam, named := New(), New()
	for _, r := range []*Registry{fam, named} {
		for _, n := range []string{"pami/ctx.advances", "pami/ctx.advances_total",
			"pami/ctx.advance", "pami/ctx.advances{rank=9}", "x/a{a=1}"} {
			r.Counter(n).Add(1)
		}
		r.Gauge("pami/ctx.starve_max_ns").Set(4)
	}
	type famSpec struct {
		name  string
		keys  []string
		gauge bool
	}
	specs := []famSpec{
		{"pami/ctx.advances", []string{"rank", "ctx"}, false},
		{"network/link.busy_ns", []string{"link"}, false},
		{"x/a", []string{"a1", "a"}, false},
		{"x/z", []string{"zeta", "alpha"}, false},
		{"pami/ctx.starve_max_ns", []string{"rank", "ctx"}, true},
		{"x/g", []string{"k"}, true},
	}
	type registered struct {
		famSpec
		s *slab
	}
	var slabs []registered
	for range 24 {
		sp := specs[rng.Intn(len(specs))]
		off := int32(rng.Intn(40) - 5)
		s := &slab{v: make([]int64, 1+rng.Intn(200))}
		if len(sp.keys) == 1 {
			s.labels = func(i int) [maxLabels]int32 { return [maxLabels]int32{off + int32(i)} }
		} else {
			s.labels = func(i int) [maxLabels]int32 { return [maxLabels]int32{off + int32(i/12), int32(i % 12)} }
		}
		for i := range s.v {
			if rng.Intn(4) > 0 {
				s.v[i] = rng.Int63n(1000) - 100
			}
		}
		if sp.gauge {
			fam.GaugeFamily(sp.name, sp.keys, len(s.v), s.at)
		} else {
			fam.CounterFamily(sp.name, sp.keys, len(s.v), s.at)
		}
		slabs = append(slabs, registered{sp, s})
	}
	bump := func() {
		for _, r := range slabs {
			for range 20 {
				r.s.v[rng.Intn(len(r.s.v))] += rng.Int63n(300)
			}
		}
	}
	bump() // exports read a slab when they run
	for _, r := range slabs {
		for i := range r.s.v {
			s, ok := r.s.at(i)
			if !ok {
				continue
			}
			if full := fullName(r.name, r.keys, s); r.gauge {
				named.Gauge(full).SetMax(s.V)
			} else {
				named.Counter(full).Add(s.V)
			}
		}
	}
	if got, want := exports(t, fam), exports(t, named); got != want {
		t.Fatalf("family exports\n%s\nwant the named handles'\n%s", got, want)
	}

	pf, pn := New(), New()
	pf.Counter("pami/ctx.advances_total").Add(2)
	pn.Counter("pami/ctx.advances_total").Add(2)
	pf.Merge(fam)
	pn.Merge(named)
	bump() // merged, the parents keep what the merge read
	if got, want := exports(t, pf), exports(t, pn); got != want {
		t.Fatalf("merged family exports\n%s\nwant the merged named handles'\n%s", got, want)
	}
}

// TestMergeMovesHandles: what the parent lacks becomes the parent's as the
// same object — counter, gauge, histogram with its bucket array, family,
// its slab read at the merge — and what both hold adds into the parent's.
// A gauge never written and a family with no series are not carried.
func TestMergeMovesHandles(t *testing.T) {
	parent := New()
	parent.Counter("both").Add(1)
	child := parent.NewChild()
	c, both := child.Counter("c"), child.Counter("both")
	c.Add(2)
	both.Add(3)
	g := child.Gauge("g")
	g.Set(5)
	child.Gauge("unset")
	h := child.Histogram("h", DefaultLatencyBounds)
	h.Observe(7)
	s := &slab{labels: func(i int) [maxLabels]int32 { return [maxLabels]int32{int32(i)} }, v: []int64{0, 0, 0, 4}}
	child.CounterFamily("f", []string{"rank"}, len(s.v), s.at)
	child.CounterFamily("empty", []string{"rank"}, 2, s.at)
	f := child.fams["f"]
	parent.Merge(child)
	s.v[3] = 9
	if parent.Counter("c") != c || parent.Gauge("g") != g || parent.Histogram("h", nil) != h ||
		parent.fams["f"] != f {
		t.Fatal("a handle the parent lacked was re-created instead of moved")
	}
	if got := f.series(); len(got) != 1 || got[0] != (Series{Labels: [maxLabels]int32{3}, V: 4}) {
		t.Fatalf("the moved family holds %v, want the one series its slab held at the merge", got)
	}
	if &parent.hists["h"].counts[0] != &h.counts[0] {
		t.Fatal("a moved histogram's buckets were copied")
	}
	if parent.Counter("both") == both || parent.Counter("both").Value() != 4 {
		t.Fatalf("a counter both held: %d, want the parent's own, at 4", parent.Counter("both").Value())
	}
	if _, ok := parent.gauges["unset"]; ok {
		t.Fatal("a gauge never written was carried")
	}
	if _, ok := parent.fams["empty"]; ok {
		t.Fatal("a family with no series was carried")
	}
}

// TestMergedChildIsRetired: after Merge the child's trace stays readable,
// and in race builds making a handle or a track on the child, attaching
// to it, registering a family on it or recording a span into it panics.
func TestMergedChildIsRetired(t *testing.T) {
	parent := New()
	child := parent.NewChild()
	child.Span(TrackRank, "0", "run", 0, 10)
	parent.Merge(child)

	b, kept, total := NewTraceStreamer().Emit(nil, child, "\n", 10)
	if kept != total || !strings.Contains(string(b), `"name":"run"`) {
		t.Fatalf("the merged child's trace: kept %d of %d lines\n%s", kept, total, b)
	}
	if !raceEnabled {
		t.Skip("retirement is checked in race builds")
	}
	var x uint64
	none := func(int) (Series, bool) { return Series{}, false }
	for name, use := range map[string]func(){
		"Counter":       func() { child.Counter("c") },
		"Attach":        func() { child.Attach("c", &x) },
		"Gauge":         func() { child.Gauge("g") },
		"Histogram":     func() { child.Histogram("h", DefaultLatencyBounds) },
		"CounterFamily": func() { child.CounterFamily("f", []string{"rank"}, 1, none) },
		"GaugeFamily":   func() { child.GaugeFamily("g2", []string{"rank"}, 1, none) },
		"Track":         func() { child.Track(TrackRank, "0") },
		"Span":          func() { child.Span(TrackRank, "1", "run", 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a merged registry did not panic", name)
				}
			}()
			use()
		}()
	}
}

// FuzzMergeMatchesSerial: an operation sequence drawn from the input —
// counters, attached fields (bumped until their registry merges),
// Set-style and SetMax-style gauges, histograms, counter and gauge
// families read from slabs, and track records — split in order across one
// to four children merged in turn, exports the bytes of the same sequence
// recorded serially into one registry: Prometheus text, the JSON snapshot
// and the Chrome trace. A named gauge keeps one write style, as Merge's
// replay assumes.
func FuzzMergeMatchesSerial(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 1, 5, 1, 2, 7, 5, 3, 9, 9, 8, 4, 6, 7})
	f.Add([]byte("\x03serial and merged registries must agree on every byte they export"))
	f.Add(bytes.Repeat([]byte{2, 5, 200, 6, 41, 3, 7, 130, 255, 9, 0, 1, 8, 77, 12}, 12))
	// Both gauge families read in one child and lower in the next: each
	// series keeps the higher value.
	f.Add([]byte{1, 7, 0, 200, 7, 1, 200, 7, 0, 10, 7, 1, 10})
	// Two slabs of one counter family in one child, one bumped; then a
	// third in the next child.
	f.Add([]byte{1, 5, 4, 9, 5, 6, 3, 6, 2, 50, 5, 8, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const capacity = 3
		kids, ops := 1+int(data[0]%4), data[1:]
		n := len(ops) / 3
		serial, parent := New(WithTrackCap(capacity)), New(WithTrackCap(capacity))
		child, seg := parent.NewChild(), 0
		// Attached fields are shared by both recordings, and bumped only
		// while the child they were attached to is live: once merged, the
		// parent keeps the sample the merge took.
		type field struct {
			v   uint64
			seg int
		}
		var fields []*field
		// A slab has one copy per recording; both are bumped while its
		// child is live, and the child's copy again once it is merged,
		// which the parent must not see.
		type twin struct {
			serial, child *slab
			seg           int
		}
		var slabs []twin
		merge := func() {
			parent.Merge(child)
			for _, s := range slabs {
				if s.seg == seg {
					for i := range s.child.v {
						s.child.v[i] += 1000
					}
				}
			}
		}
		bounds := []Time{0, 16, 256}
		for i := 0; i < n; i++ {
			if s := i * kids / n; s != seg {
				merge()
				child, seg = parent.NewChild(), s
			}
			op, a, v := ops[3*i]%10, int(ops[3*i+1]), int64(ops[3*i+2])
			var p *uint64 // the field this operation attaches
			switch op {
			case 9:
				if last := len(fields) - 1; last >= 0 && fields[last].seg == seg {
					fields[last].v += uint64(v)
				}
				continue
			case 6:
				if last := len(slabs) - 1; last >= 0 && slabs[last].seg == seg {
					s := slabs[last]
					s.serial.v[a%len(s.serial.v)] += v
					s.child.v[a%len(s.child.v)] += v
				}
				continue
			case 5, 7:
				// A slab of 1 to 8 series, labels from a base the operation
				// picks: two slabs of one name may share label sets.
				base, keys, name := int32(a/2%21), []string{"rank"}, "f/one"
				labels := func(i int) [maxLabels]int32 { return [maxLabels]int32{base + int32(i)} }
				if a%2 == 1 {
					keys, name = []string{"rank", "ctx"}, "f/two"
					labels = func(i int) [maxLabels]int32 { return [maxLabels]int32{base + int32(i/3), int32(i % 3)} }
				}
				tw := twin{&slab{labels, make([]int64, 1+a%8)}, &slab{labels, make([]int64, 1+a%8)}, seg}
				for j := range tw.serial.v {
					if (v+int64(j))%3 != 0 {
						tw.serial.v[j] = v - 128 + int64(j)
						tw.child.v[j] = tw.serial.v[j]
					}
				}
				slabs = append(slabs, tw)
				for _, reg := range []struct {
					r *Registry
					s *slab
				}{{serial, tw.serial}, {child, tw.child}} {
					if op == 5 {
						reg.r.CounterFamily(name, keys, len(reg.s.v), reg.s.at)
					} else {
						reg.r.GaugeFamily("g"+name, keys, len(reg.s.v), reg.s.at)
					}
				}
				continue
			case 1:
				fields = append(fields, &field{v: uint64(v), seg: seg})
				p = &fields[len(fields)-1].v
			}
			for _, r := range []*Registry{serial, child} {
				switch op {
				case 0:
					r.Counter([]string{"c/a", "c/b{k=1}", "c/b{k=2}"}[a%3]).Add(v)
				case 1:
					r.Attach([]string{"c/a", "c/f"}[a%2], p)
				case 2:
					r.Gauge([]string{"g/last", "g/last{k=1}"}[a%2]).Set(v - 128)
				case 3:
					r.Gauge([]string{"g/max", "g/max{k=1}"}[a%2]).SetMax(v - 128)
				case 4:
					r.Histogram([]string{"h/a", "h/b{k=1}"}[a%2], bounds).Observe(v * v)
				case 8:
					at := Time(v * 100)
					r.SpanArg(TrackKind(a%4), fmt.Sprint("t", a/4%3), "op", "c", at, at+Time(a), v)
				}
			}
		}
		merge()
		var got, want bytes.Buffer
		for _, dump := range []func(*Registry, *bytes.Buffer) error{
			func(r *Registry, b *bytes.Buffer) error { return r.WritePrometheus(b) },
			func(r *Registry, b *bytes.Buffer) error { return r.SnapshotJSON(b) },
			func(r *Registry, b *bytes.Buffer) error { return r.WriteChromeTrace(b) },
		} {
			if err := dump(parent, &got); err != nil {
				t.Fatal(err)
			}
			if err := dump(serial, &want); err != nil {
				t.Fatal(err)
			}
		}
		if got.String() != want.String() {
			t.Fatalf("%d children merged\n%s\nwant the serial recording's\n%s", kids, got.String(), want.String())
		}
	})
}
