package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// TrackKind classifies trace tracks. In the Chrome trace_event export
// each kind becomes one "process" and each track one "thread" under it,
// so Perfetto groups all rank timelines, all progress threads, and all
// torus links into three collapsible lanes.
type TrackKind uint8

const (
	// TrackOther is the default for uncategorized threads.
	TrackOther TrackKind = iota
	// TrackRank holds one track per application (main) thread / rank.
	TrackRank
	// TrackProgress holds one track per asynchronous progress thread.
	TrackProgress
	// TrackLink holds one track per unidirectional torus link.
	TrackLink

	numTrackKinds
)

func (k TrackKind) String() string {
	switch k {
	case TrackOther:
		return "other"
	case TrackRank:
		return "ranks"
	case TrackProgress:
		return "progress"
	case TrackLink:
		return "links"
	}
	return "?"
}

type trackKey struct {
	kind TrackKind
	id   string
}

// spanRec is one retained trace record. phase 'X' is a duration span,
// 'i' an instant.
type spanRec struct {
	start, end Time
	name, cat  string
	arg        int64
	hasArg     bool
	phase      byte
	seq        uint64
}

// track is a fixed-capacity ring of records, keeping the most recent
// window per (kind, id).
type track struct {
	ring  []spanRec
	head  int
	total uint64
}

func (r *Registry) record(kind TrackKind, id string, rec spanRec) {
	rec.seq = r.seq
	r.seq++
	key := trackKey{kind, id}
	t, ok := r.tracks[key]
	if !ok {
		t = &track{}
		r.tracks[key] = t
	}
	if len(t.ring) < r.trackCap {
		t.ring = append(t.ring, rec)
	} else {
		t.ring[t.head] = rec
		t.head = (t.head + 1) % r.trackCap
	}
	t.total++
}

// Span records a duration [start, end] on the given track. No-op on a
// nil registry.
func (r *Registry) Span(kind TrackKind, id, name string, start, end Time) {
	if r == nil {
		return
	}
	r.record(kind, id, spanRec{start: start, end: end, name: name, phase: 'X'})
}

// SpanArg is Span with a category string and a scalar argument (payload
// bytes, item counts) attached.
func (r *Registry) SpanArg(kind TrackKind, id, name, cat string, start, end Time, arg int64) {
	if r == nil {
		return
	}
	r.record(kind, id, spanRec{start: start, end: end, name: name, cat: cat, arg: arg, hasArg: true, phase: 'X'})
}

// Instant records a point event on the given track. No-op on a nil
// registry.
func (r *Registry) Instant(kind TrackKind, id, name string, at Time) {
	if r == nil {
		return
	}
	r.record(kind, id, spanRec{start: at, end: at, name: name, phase: 'i'})
}

// InstantArg is Instant with a category string and scalar argument.
func (r *Registry) InstantArg(kind TrackKind, id, name, cat string, at Time, arg int64) {
	if r == nil {
		return
	}
	r.record(kind, id, spanRec{start: at, end: at, name: name, cat: cat, arg: arg, hasArg: true, phase: 'i'})
}

// Event is one retained trace record, as returned by Events.
type Event struct {
	Kind       TrackKind
	Track      string // track id within the kind
	Name       string
	Cat        string
	Start, End Time
	Arg        int64
	Instant    bool
	seq        uint64
}

// Events returns the retained records of one track kind, time-ordered
// (start time, then record order). match, when non-nil, filters records
// before the sort — filtering a large trace never pays for sorting
// records it is about to drop.
func (r *Registry) Events(kind TrackKind, match func(Event) bool) []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for key, t := range r.tracks {
		if key.kind != kind {
			continue
		}
		for _, rec := range t.ring {
			e := Event{
				Kind: key.kind, Track: key.id, Name: rec.name, Cat: rec.cat,
				Start: rec.start, End: rec.end, Arg: rec.arg,
				Instant: rec.phase == 'i', seq: rec.seq,
			}
			if match == nil || match(e) {
				out = append(out, e)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].seq < out[j].seq
	})
	return out
}

// EventsTotal returns how many records were ever added to tracks of the
// given kind, including evicted ones.
func (r *Registry) EventsTotal(kind TrackKind) uint64 {
	if r == nil {
		return 0
	}
	var n uint64
	for key, t := range r.tracks {
		if key.kind == kind {
			n += t.total
		}
	}
	return n
}

// jstr renders s as a JSON string literal.
func jstr(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // strings always marshal
	}
	return string(b)
}

// WriteChromeTrace exports every retained trace record as Chrome
// trace_event JSON (the format Perfetto and chrome://tracing load): the
// lines a fresh TraceStreamer emits for r, wrapped as one document. Each
// TrackKind becomes a process, each track a named thread; durations are
// "X" complete events and instants "i" events, with virtual time mapped
// to microseconds at nanosecond resolution. Output is deterministic:
// tracks are sorted by (kind, id) and events by (time, insertion order).
func (r *Registry) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	for i, line := range NewTraceStreamer().Emit(r) {
		if i > 0 {
			bw.WriteString(",\n")
		}
		bw.WriteString(line)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// chromeEventLine encodes one retained record as a single-line Chrome
// trace_event JSON object.
func chromeEventLine(rec spanRec, pid, tid int) string {
	var line string
	// ts/dur are microseconds; %d.%03d keeps exact ns resolution
	// without float formatting.
	ts := fmt.Sprintf("%d.%03d", rec.start/1000, rec.start%1000)
	switch rec.phase {
	case 'X':
		dur := rec.end - rec.start
		line = fmt.Sprintf(`{"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%d.%03d,"name":%s`,
			pid, tid, ts, dur/1000, dur%1000, jstr(rec.name))
	default:
		line = fmt.Sprintf(`{"ph":"i","pid":%d,"tid":%d,"ts":%s,"s":"t","name":%s`,
			pid, tid, ts, jstr(rec.name))
	}
	if rec.cat != "" {
		line += fmt.Sprintf(`,"cat":%s`, jstr(rec.cat))
	}
	if rec.hasArg {
		line += fmt.Sprintf(`,"args":{"arg":%d}`, rec.arg)
	}
	return line + "}"
}
