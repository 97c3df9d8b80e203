package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// emitLines is one unlimited Emit, split into its lines (a line never
// holds a raw newline: JSON escapes it).
func emitLines(ts *TraceStreamer, reg *Registry) []string {
	b, _, _ := ts.Emit(nil, reg, "\n", math.MaxInt)
	if len(b) == 0 {
		return nil
	}
	return strings.Split(string(b), "\n")
}

func populated() *Registry {
	r := New(WithTrackCap(8))
	r.Counter("net/put_bytes").Add(4096)
	r.Counter("amo/fetch_add").Add(3)
	r.Gauge("pool/regions").Set(7)
	h := r.Histogram("lat/put_ns", []Time{100, 1000, 10000})
	h.Observe(50)
	h.Observe(500)
	h.Observe(99999)
	r.Span(TrackRank, "rank0", "put", 100, 400)
	r.SpanArg(TrackLink, "x+", "xfer", "net", 150, 350, 512)
	r.Instant(TrackProgress, "async0", "wakeup", 200)
	return r
}

func TestSnapshotJSONDeterministicAndValid(t *testing.T) {
	var a, b bytes.Buffer
	if err := populated().SnapshotJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := populated().SnapshotJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("identical registries produced different snapshots:\n%s\nvs\n%s", a.String(), b.String())
	}
	if strings.ContainsAny(a.String(), "\n\r") {
		t.Fatal("snapshot must be a single line")
	}
	var doc struct {
		Counters   map[string]int64 `json:"counters"`
		Gauges     map[string]int64 `json:"gauges"`
		Histograms map[string]struct {
			Count    uint64     `json:"count"`
			Sum      int64      `json:"sum"`
			Buckets  [][2]int64 `json:"buckets"`
			Overflow uint64     `json:"overflow"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, a.String())
	}
	if doc.Counters["net/put_bytes"] != 4096 || doc.Counters["amo/fetch_add"] != 3 {
		t.Fatalf("counters wrong: %v", doc.Counters)
	}
	if doc.Gauges["pool/regions"] != 7 {
		t.Fatalf("gauges wrong: %v", doc.Gauges)
	}
	h := doc.Histograms["lat/put_ns"]
	if h.Count != 3 || h.Sum != 50+500+99999 || h.Overflow != 1 {
		t.Fatalf("histogram wrong: %+v", h)
	}
	if len(h.Buckets) != 3 || h.Buckets[0] != [2]int64{100, 1} || h.Buckets[1] != [2]int64{1000, 1} || h.Buckets[2] != [2]int64{10000, 0} {
		t.Fatalf("buckets wrong: %v", h.Buckets)
	}
	// Section names must come out sorted, same discipline as WritePrometheus.
	s := a.String()
	if strings.Index(s, `"amo/fetch_add"`) > strings.Index(s, `"net/put_bytes"`) {
		t.Fatal("counter names not sorted")
	}
}

func TestSnapshotJSONNilAndEmpty(t *testing.T) {
	const empty = `{"counters":{},"gauges":{},"histograms":{}}`
	var buf bytes.Buffer
	var nilReg *Registry
	if err := nilReg.SnapshotJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != empty {
		t.Fatalf("nil registry snapshot = %q, want %q", buf.String(), empty)
	}
	buf.Reset()
	if err := New().SnapshotJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != empty {
		t.Fatalf("empty registry snapshot = %q, want %q", buf.String(), empty)
	}
}

func TestTraceStreamerDeterministicAndStable(t *testing.T) {
	mkRegs := func() []*Registry {
		r1 := New(WithTrackCap(8))
		r1.Span(TrackRank, "rank1", "get", 10, 30)
		r1.Span(TrackRank, "rank0", "put", 5, 20)
		r2 := New(WithTrackCap(8))
		r2.Span(TrackRank, "rank0", "put", 40, 60) // existing track: no new metadata
		r2.Instant(TrackLink, "y-", "drop", 45)    // new kind + track mid-stream
		return []*Registry{r1, r2}
	}
	run := func() []string {
		ts := NewTraceStreamer()
		var all []string
		for _, r := range mkRegs() {
			all = append(all, emitLines(ts, r)...)
		}
		return all
	}
	a, b := run(), run()
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatal("identical input sequences produced different streams")
	}

	// Every line is a valid standalone JSON object, and the concatenation
	// is a loadable trace_event array.
	for _, line := range a {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line is not valid JSON: %v\n%s", err, line)
		}
	}
	var arr []map[string]any
	doc := "[" + strings.Join(a, ",") + "]"
	if err := json.Unmarshal([]byte(doc), &arr); err != nil {
		t.Fatalf("concatenated stream is not a JSON array: %v", err)
	}

	// Metadata exactly once per kind and per track; rank0 keeps its tid
	// across Emit calls.
	var procMeta, threadMeta, events int
	tidByTrack := map[string][]float64{}
	for _, obj := range arr {
		switch obj["name"] {
		case "process_name":
			procMeta++
		case "thread_name":
			threadMeta++
			name := obj["args"].(map[string]any)["name"].(string)
			tidByTrack[name] = append(tidByTrack[name], obj["tid"].(float64))
		default:
			events++
		}
	}
	if procMeta != 2 { // ranks, links
		t.Fatalf("process_name metadata emitted %d times, want 2", procMeta)
	}
	if threadMeta != 3 { // rank0, rank1, y-
		t.Fatalf("thread_name metadata emitted %d times, want 3", threadMeta)
	}
	if events != 4 {
		t.Fatalf("streamed %d events, want 4", events)
	}
	if len(tidByTrack["rank0"]) != 1 {
		t.Fatalf("rank0 metadata repeated: %v", tidByTrack["rank0"])
	}
}

func TestTraceStreamerMatchesWriteChromeTrace(t *testing.T) {
	// A trace file is one registry's stream and nothing else: every line a
	// fresh streamer emits, metadata included, in that order, as the
	// traceEvents array.
	reg := populated()
	var buf bytes.Buffer
	if err := reg.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	want := "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n" +
		strings.Join(emitLines(NewTraceStreamer(), reg), ",\n") + "\n]}\n"
	if buf.String() != want {
		t.Fatalf("WriteChromeTrace diverges from the streamer:\nwriter:\n%s\nstream:\n%s", buf.String(), want)
	}
	if emitLines(NewTraceStreamer(), nil) != nil {
		t.Fatal("nil registry should stream nothing")
	}
	if emitLines(NewTraceStreamer(), New()) != nil {
		t.Fatal("trace-empty registry should stream nothing")
	}
}
