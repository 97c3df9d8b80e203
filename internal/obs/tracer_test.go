package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestNilRegistryTracerIsNoOp(t *testing.T) {
	var r *Registry
	r.Span(TrackRank, "0", "run", 0, 10)
	r.SpanArg(TrackRank, "0", "run", "cat", 0, 10, 1)
	r.Instant(TrackRank, "0", "x", 5)
	r.InstantArg(TrackRank, "0", "x", "cat", 5, 1)
	if r.Events(TrackRank, nil) != nil {
		t.Fatal("nil registry returned events")
	}
	if r.EventsTotal(TrackRank) != 0 {
		t.Fatal("nil registry counted events")
	}
	var sb strings.Builder
	if err := r.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(sb.String())) {
		t.Fatalf("nil-registry skeleton is not valid JSON: %q", sb.String())
	}
}

func TestTrackRingWraparound(t *testing.T) {
	r := New(WithTrackCap(4))
	for i := 0; i < 10; i++ {
		r.InstantArg(TrackRank, "0", "x", "", Time(i), int64(i))
	}
	evs := r.Events(TrackRank, nil)
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	// The most recent four survive eviction, in time order.
	for i, e := range evs {
		if want := int64(6 + i); e.Arg != want {
			t.Fatalf("event %d arg = %d, want %d", i, e.Arg, want)
		}
	}
	if r.EventsTotal(TrackRank) != 10 {
		t.Fatalf("total = %d", r.EventsTotal(TrackRank))
	}
}

func TestEventsOrderAndFilter(t *testing.T) {
	r := New()
	r.Span(TrackRank, "1", "b", 300, 310)
	r.SpanArg(TrackRank, "0", "a", "net", 100, 110, 7)
	r.Instant(TrackRank, "2", "c", 200)
	r.Instant(TrackProgress, "p", "other-kind", 50)

	evs := r.Events(TrackRank, nil)
	if len(evs) != 3 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].Name != "a" || evs[1].Name != "c" || evs[2].Name != "b" {
		t.Fatalf("order: %+v", evs)
	}
	if evs[0].Cat != "net" || evs[0].Arg != 7 || evs[0].Instant {
		t.Fatalf("span fields: %+v", evs[0])
	}
	if !evs[1].Instant {
		t.Fatalf("instant flag: %+v", evs[1])
	}

	only := r.Events(TrackRank, func(e Event) bool { return e.Cat == "net" })
	if len(only) != 1 || only[0].Name != "a" {
		t.Fatalf("filtered: %+v", only)
	}
}

// sameTrace populates a registry with a fixed event mix covering all
// three exported track kinds.
func sameTrace() *Registry {
	r := New()
	r.Span(TrackRank, "rank-0000", "run", 0, 1000)
	r.SpanArg(TrackRank, "rank-0001", "blocked", "sim", 100, 2500, 0)
	r.Span(TrackProgress, "async-0000", "advance", 500, 700)
	r.SpanArg(TrackLink, "link-000001", "xfer", "net", 250, 750, 512)
	r.Instant(TrackRank, "rank-0000", "wake", 1000)
	r.InstantArg(TrackRank, "rank-0001", "rmw", "am", 1234, 1)
	return r
}

func TestChromeTraceDeterministicAndValid(t *testing.T) {
	var a, b strings.Builder
	if err := sameTrace().WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := sameTrace().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("identical registries exported different traces")
	}
	out := a.String()
	if !json.Valid([]byte(out)) {
		t.Fatalf("not valid JSON:\n%s", out)
	}

	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Name string `json:"name"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	// All three exported track kinds appear as named processes.
	kinds := map[string]bool{}
	pids := map[int]bool{}
	for _, e := range doc.TraceEvents {
		pids[e.Pid] = true
		if e.Ph == "M" && e.Name == "process_name" {
			kinds[e.Args.Name] = true
		}
	}
	for _, want := range []string{"ranks", "progress", "links"} {
		if !kinds[want] {
			t.Fatalf("missing process track %q in:\n%s", want, out)
		}
	}
	if len(pids) < 3 {
		t.Fatalf("only %d distinct pids", len(pids))
	}
}

func TestChromeTraceMicrosecondFormatting(t *testing.T) {
	r := New()
	r.Span(TrackRank, "0", "run", 1234567, 1238568) // 1234.567 us, dur 4.001 us
	var sb strings.Builder
	if err := r.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"ts":1234.567`, `"dur":4.001`} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %s in:\n%s", want, out)
		}
	}
}

// A registry made WithTrackCap(0) keeps metrics and no trace: it records
// no span and makes no track, its children inherit that, two of them
// merge, and its metrics export as a tracing registry's do.
func TestMetricsOnlyRegistry(t *testing.T) {
	record := func(r *Registry, v int64) {
		r.Counter("c").Add(v)
		r.Histogram("h", DefaultLatencyBounds).Observe(v)
		r.Span(TrackRank, "0", "run", 0, 10)
		r.SpanArg(TrackLink, "l", "xfer", "net", 0, 10, v)
		r.Instant(TrackRank, "0", "wake", 5)
		r.InstantArg(TrackOther, "faults", "x", "fault", 5, v)
		r.Track(TrackProgress, "p").Span("advance", 1, 2)
	}
	metricsOnly, tracing := New(WithTrackCap(0)), New()
	for _, parent := range []*Registry{metricsOnly, tracing} {
		a, b := parent.NewChild(), parent.NewChild()
		record(a, 1)
		record(b, 2)
		a.Merge(b)
		parent.Merge(a)
		record(parent, 3)
	}
	for _, r := range []*Registry{metricsOnly, metricsOnly.NewChild()} {
		if r.Tracing() || r.Track(TrackRank, "0") != nil {
			t.Fatal("a metrics-only registry or its child keeps a trace")
		}
	}
	if len(metricsOnly.tracks) != 0 || metricsOnly.seq != 0 || metricsOnly.EventsTotal(TrackRank) != 0 {
		t.Fatalf("metrics-only registry holds %d tracks, seq %d", len(metricsOnly.tracks), metricsOnly.seq)
	}
	if got := metricsOnly.Counter("c").Value(); got != 6 {
		t.Errorf("merged counter = %d, want 6", got)
	}
	var empty, trace, m1, m2, s1, s2 strings.Builder
	(*Registry)(nil).WriteChromeTrace(&empty)
	metricsOnly.WriteChromeTrace(&trace)
	if trace.String() != empty.String() {
		t.Errorf("metrics-only trace %q, want the empty document", trace.String())
	}
	metricsOnly.WritePrometheus(&m1)
	tracing.WritePrometheus(&m2)
	metricsOnly.SnapshotJSON(&s1)
	tracing.SnapshotJSON(&s2)
	if m1.String() != m2.String() || s1.String() != s2.String() {
		t.Error("metrics-only exports differ from the tracing registry's")
	}
	defer func() {
		if recover() == nil {
			t.Error("WithTrackCap(-1) did not panic")
		}
	}()
	WithTrackCap(-1)
}

// A Track handle records what the registry's own methods record, and a
// track resolved but never recorded on is in no export and no merge.
func TestTrackHandleMatchesRegistry(t *testing.T) {
	byName, byHandle := New(WithTrackCap(4)), New(WithTrackCap(4))
	byHandle.Track(TrackRank, "idle")
	rank, link := byHandle.Track(TrackRank, "0"), byHandle.Track(TrackLink, "l")
	for i := Time(0); i < 6; i++ {
		byName.Span(TrackRank, "0", "run", i, i+3)
		byName.SpanArg(TrackLink, "l", "xfer", "net", i, i+1, int64(i))
		byName.Instant(TrackRank, "0", "wake", i)
		byName.InstantArg(TrackRank, "0", "tr", "am", i, int64(i))
		rank.Span("run", i, i+3)
		link.SpanArg("xfer", "net", i, i+1, int64(i))
		rank.Instant("wake", i)
		rank.InstantArg("tr", "am", i, int64(i))
	}
	merged := New(WithTrackCap(4))
	merged.Merge(byHandle)
	var want strings.Builder
	byName.WriteChromeTrace(&want)
	for name, r := range map[string]*Registry{"handle": byHandle, "merged": merged} {
		var got strings.Builder
		r.WriteChromeTrace(&got)
		if got.String() != want.String() {
			t.Errorf("%s trace\n got %s\nwant %s", name, got.String(), want.String())
		}
	}
	if _, ok := merged.tracks[trackKey{TrackRank, "idle"}]; ok {
		t.Error("Merge copied a track nothing was recorded on")
	}
	var nilTrack *Track
	nilTrack.Span("run", 0, 1)
	nilTrack.SpanArg("run", "c", 0, 1, 1)
	nilTrack.Instant("x", 0)
	nilTrack.InstantArg("x", "c", 0, 1)
}
