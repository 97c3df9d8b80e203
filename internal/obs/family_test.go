package obs

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestFamilyExportsAsNamed: a family's members export, snapshot and merge
// to the bytes the same series made as named handles do — wherever their
// full names sort among plain neighbours (ranks 2 and 10, "a" before or
// after "a1"), past the member count that builds the index, with attached
// fields, and with gauges written and never written.
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
	fields := make([]uint64, 0, 4096) // attached fields must not move
	attached := map[string]bool{}
	for i := 0; i < 3000; i++ {
		sp := specs[rng.Intn(len(specs))]
		labels := []int{rng.Intn(40) - 5, rng.Intn(12)}[:len(sp.keys)]
		full := sp.name + "{"
		for j, k := range sp.keys {
			if j > 0 {
				full += ","
			}
			full += fmt.Sprintf("%s=%d", k, labels[j])
		}
		full += "}"
		v := rng.Int63n(1000) - 100
		if sp.gauge {
			f := fam.GaugeFamily(sp.name, sp.keys...)
			m := f.Member(labels...)
			if g := named.Gauge(full); rng.Intn(3) > 0 {
				f.SetMax(m, v)
				g.SetMax(v)
			}
			continue
		}
		f := fam.CounterFamily(sp.name, sp.keys...)
		m := f.Member(labels...)
		if !attached[full] && rng.Intn(4) == 0 {
			attached[full] = true
			fields = append(fields, uint64(v+100))
			f.Attach(m, &fields[len(fields)-1])
			named.Attach(full, &fields[len(fields)-1])
			continue
		}
		f.Add(m, v)
		named.Counter(full).Add(v)
	}
	for i := range fields {
		fields[i] += 3 // exports read a field when they run
	}
	if got, want := exports(t, fam), exports(t, named); got != want {
		t.Fatalf("family exports\n%s\nwant the named handles'\n%s", got, want)
	}

	pf, pn := New(), New()
	pf.Counter("pami/ctx.advances_total").Add(2)
	pn.Counter("pami/ctx.advances_total").Add(2)
	pf.Merge(fam)
	pn.Merge(named)
	for i := range fields {
		fields[i] += 5 // merged, the parents no longer read them
	}
	if got, want := exports(t, pf), exports(t, pn); got != want {
		t.Fatalf("merged family exports\n%s\nwant the merged named handles'\n%s", got, want)
	}
}

// TestMergeMovesHandles: what the parent lacks becomes the parent's as the
// same object — counter, gauge, histogram with its bucket array, family —
// and what both hold adds into the parent's.
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
	f := child.CounterFamily("f", "rank")
	f.Add(f.Member(3), 4)
	parent.Merge(child)
	if parent.Counter("c") != c || parent.Gauge("g") != g || parent.Histogram("h", nil) != h ||
		parent.CounterFamily("f", "rank") != f {
		t.Fatal("a handle the parent lacked was re-created instead of moved")
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
}

// TestMergedChildIsRetired: after Merge the child's trace stays readable,
// and in race builds making a handle or a track on the child, attaching
// to it, adding a family member to it or recording a span into it
// panics.
func TestMergedChildIsRetired(t *testing.T) {
	parent := New()
	parent.CounterFamily("f", "rank") // so the child's family stays the child's
	parent.GaugeFamily("g", "rank")
	child := parent.NewChild()
	fam, gfam := child.CounterFamily("f", "rank"), child.GaugeFamily("g", "rank")
	m := fam.Member(0)
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
	for name, use := range map[string]func(){
		"Counter":              func() { child.Counter("c") },
		"Attach":               func() { child.Attach("c", &x) },
		"Gauge":                func() { child.Gauge("g") },
		"Histogram":            func() { child.Histogram("h", DefaultLatencyBounds) },
		"CounterFamily":        func() { child.CounterFamily("f2", "rank") },
		"GaugeFamily":          func() { child.GaugeFamily("g2", "rank") },
		"CounterFamily.Member": func() { fam.Member(1) },
		"CounterFamily.Attach": func() { fam.Attach(m, &x) },
		"GaugeFamily.Member":   func() { gfam.Member(1) },
		"Track":                func() { child.Track(TrackRank, "0") },
		"Span":                 func() { child.Span(TrackRank, "1", "run", 0, 1) },
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
// Set-style and SetMax-style gauges, histograms, family members added,
// attached and raised, and track records — split in order across one to
// four children merged in turn, exports the bytes of the same sequence
// recorded serially into one registry: Prometheus text, the JSON snapshot
// and the Chrome trace. A named gauge keeps one write style, as Merge's
// replay assumes.
func FuzzMergeMatchesSerial(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 1, 5, 1, 2, 7, 5, 3, 9, 9, 8, 4, 6, 7})
	f.Add([]byte("\x03serial and merged registries must agree on every byte they export"))
	f.Add(bytes.Repeat([]byte{2, 5, 200, 6, 41, 3, 7, 130, 255, 9, 0, 1, 8, 77, 12}, 12))
	// Both gauge families written in one child and lower in the next:
	// each member keeps the higher value.
	f.Add([]byte{1, 7, 0, 200, 7, 1, 200, 7, 0, 10, 7, 1, 10})
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
		attached := map[[2]int]bool{} // f/two members with a field
		bounds := []Time{0, 16, 256}
		for i := 0; i < n; i++ {
			if s := i * kids / n; s != seg {
				parent.Merge(child)
				child, seg = parent.NewChild(), s
			}
			op, a, v := ops[3*i]%10, int(ops[3*i+1]), int64(ops[3*i+2])
			rank, ctx := a%21, a/21%3
			var p *uint64 // the field this operation attaches
			switch {
			case op == 9:
				if last := len(fields) - 1; last >= 0 && fields[last].seg == seg {
					fields[last].v += uint64(v)
				}
				continue
			case op == 1 || op == 6 && !attached[[2]int{rank, ctx}]:
				if op == 6 {
					attached[[2]int{rank, ctx}] = true
				}
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
				case 5:
					if a%2 == 0 {
						fam := r.CounterFamily("f/one", "rank")
						fam.Add(fam.Member(rank), v)
					} else {
						fam := r.CounterFamily("f/two", "rank", "ctx")
						fam.Add(fam.Member(rank, ctx), v)
					}
				case 6:
					fam := r.CounterFamily("f/two", "rank", "ctx")
					if m := fam.Member(rank, ctx); p != nil {
						fam.Attach(m, p)
					} else {
						fam.Add(m, v)
					}
				case 7:
					if a%2 == 0 {
						fam := r.GaugeFamily("f/hi", "rank")
						fam.SetMax(fam.Member(rank), v-128)
					} else {
						fam := r.GaugeFamily("f/hi2", "rank", "ctx")
						fam.SetMax(fam.Member(rank, ctx), v-128)
					}
				case 8:
					at := Time(v * 100)
					r.SpanArg(TrackKind(a%4), fmt.Sprint("t", a/4%3), "op", "c", at, at+Time(a), v)
				}
			}
		}
		parent.Merge(child)
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
