package obs

import (
	"bytes"
	"testing"
)

// dumpAll renders a registry's complete observable state.
func dumpAll(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestMergeMetricsSemantics(t *testing.T) {
	parent := New()
	a := New()
	b := New()

	a.Counter("n").Add(3)
	b.Counter("n").Add(4)
	b.Counter("only_b").Add(1)

	a.Gauge("last").Set(10)
	b.Gauge("last").Set(20)
	a.Gauge("hiwater").SetMax(50)
	b.Gauge("hiwater").SetMax(30)

	bounds := []Time{10, 100}
	a.Histogram("h", bounds).Observe(5)
	b.Histogram("h", bounds).Observe(50)
	b.Histogram("h", bounds).Observe(500)

	parent.Merge(a)
	parent.Merge(b)

	if v := parent.Counter("n").Value(); v != 7 {
		t.Fatalf("counter sum = %d, want 7", v)
	}
	if v := parent.Counter("only_b").Value(); v != 1 {
		t.Fatalf("only_b = %d, want 1", v)
	}
	if v := parent.Gauge("last").Value(); v != 20 {
		t.Fatalf("last-wins gauge = %d, want 20 (later merge wins)", v)
	}
	if v := parent.Gauge("hiwater").Value(); v != 50 {
		t.Fatalf("max gauge = %d, want 50", v)
	}
	h := parent.Histogram("h", bounds)
	if h.Count() != 3 || h.Sum() != 555 {
		t.Fatalf("hist count=%d sum=%d, want 3/555", h.Count(), h.Sum())
	}
	_, counts := h.Buckets()
	if counts[0] != 1 || counts[1] != 1 || counts[2] != 1 {
		t.Fatalf("bucket counts = %v, want one per bucket", counts)
	}
}

// TestMergeEqualsSerialRecording is the determinism contract the sweep
// engine relies on: splitting a recording stream across child registries
// and merging them in order must reproduce the exact bytes a single
// shared registry would have produced — including ring eviction, since
// the track capacity here is far below the record count.
func TestMergeEqualsSerialRecording(t *testing.T) {
	const capacity = 8
	serial := New(WithTrackCap(capacity))
	parent := New(WithTrackCap(capacity))

	record := func(r *Registry, runIdx int) {
		for i := 0; i < 20; i++ {
			at := Time(runIdx*1000 + i*10)
			r.Span(TrackRank, "rank-0", "op", at, at+5)
			if i%3 == 0 {
				r.InstantArg(TrackRank, "rank-1", "amo", "rdma", at, int64(i))
			}
			if i%5 == 0 {
				r.Span(TrackLink, "link-2", "xfer", at, at+2)
			}
			r.Counter("ops").Add(1)
			r.Gauge("final").SetMax(int64(at))
			r.Histogram("lat", DefaultLatencyBounds).Observe(int64(100 + i))
		}
	}

	for run := 0; run < 3; run++ {
		record(serial, run)
		child := parent.NewChild()
		record(child, run)
		parent.Merge(child)
	}

	if got, want := dumpAll(t, parent), dumpAll(t, serial); got != want {
		t.Fatalf("merged output differs from serial recording:\n--- merged ---\n%s\n--- serial ---\n%s", got, want)
	}
	if got, want := parent.EventsTotal(TrackRank), serial.EventsTotal(TrackRank); got != want {
		t.Fatalf("EventsTotal(rank) = %d, want %d", got, want)
	}
	if got, want := parent.EventsTotal(TrackLink), serial.EventsTotal(TrackLink); got != want {
		t.Fatalf("EventsTotal(link) = %d, want %d", got, want)
	}
}

func TestMergeNilSafe(t *testing.T) {
	var nilReg *Registry
	nilReg.Merge(New())           // no-op
	New().Merge(nil)              // no-op
	if nilReg.NewChild() != nil { // disabled parent -> disabled child
		t.Fatal("NewChild on nil registry should be nil")
	}
}

func TestMergeMismatchPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("track cap", func() {
		New(WithTrackCap(4)).Merge(New(WithTrackCap(8)))
	})
	mustPanic("hist bounds", func() {
		a, b := New(), New()
		a.Histogram("h", []Time{1, 2}).Observe(1)
		b.Histogram("h", []Time{1, 3}).Observe(1)
		a.Merge(b)
	})
}
