package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
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

// Track is one trace track: a fixed-capacity ring of records keeping the
// most recent window for one (kind, id). A recorder that records on one
// track many times resolves it once (Registry.Track) and keeps the handle,
// so a record costs no lookup and no id formatting. The nil handle, which
// a registry that keeps no trace returns, is a no-op.
//
// A track enters the exports with its first record: one resolved and
// never recorded on is not there.
type Track struct {
	reg   *Registry
	ring  []spanRec
	head  int
	total uint64
}

// Tracing reports whether r keeps a trace: false on a nil registry and
// on one made with WithTrackCap(0).
func (r *Registry) Tracing() bool { return r != nil && r.trackCap > 0 }

// Track returns the handle of the (kind, id) track, creating the track if
// needed. It returns nil on a nil registry or one that keeps no trace.
func (r *Registry) Track(kind TrackKind, id string) *Track {
	if !r.Tracing() {
		return nil
	}
	r.checkLive()
	key := trackKey{kind, id}
	t, ok := r.tracks[key]
	if !ok {
		t = &Track{reg: r}
		put(&r.tracks, key, t)
	}
	return t
}

func (r *Registry) record(kind TrackKind, id string, rec spanRec) {
	r.Track(kind, id).record(rec)
}

// record stamps rec with the registry's next sequence number and adds it
// as the track's newest record. No-op on a nil handle. It stays out of
// line: inlined through Span into a hot recording site (a thread's
// Sleep), its record and ring append would cost that site's untraced
// path a larger frame, measurably (BenchmarkSleepUncontended).
//
//go:noinline
func (t *Track) record(rec spanRec) {
	if t == nil {
		return
	}
	r := t.reg
	rec.seq = r.seq
	r.seq++
	t.push(rec, r.trackCap)
	t.total++
}

// push adds rec as the track's newest record, evicting the oldest once the
// ring holds capacity records.
func (t *Track) push(rec spanRec, capacity int) {
	if len(t.ring) < capacity {
		t.ring = append(t.ring, rec)
	} else {
		t.ring[t.head] = rec
		t.head = (t.head + 1) % capacity
	}
}

// Span records a duration [start, end] on the track.
func (t *Track) Span(name string, start, end Time) {
	if t == nil {
		return
	}
	t.record(spanRec{start: start, end: end, name: name, phase: 'X'})
}

// SpanArg is Span with a category string and a scalar argument (payload
// bytes, item counts) attached.
func (t *Track) SpanArg(name, cat string, start, end Time, arg int64) {
	if t == nil {
		return
	}
	t.record(spanRec{start: start, end: end, name: name, cat: cat, arg: arg, hasArg: true, phase: 'X'})
}

// Instant records a point event on the track.
func (t *Track) Instant(name string, at Time) {
	if t == nil {
		return
	}
	t.record(spanRec{start: at, end: at, name: name, phase: 'i'})
}

// InstantArg is Instant with a category string and scalar argument.
func (t *Track) InstantArg(name, cat string, at Time, arg int64) {
	if t == nil {
		return
	}
	t.record(spanRec{start: at, end: at, name: name, cat: cat, arg: arg, hasArg: true, phase: 'i'})
}

// Span records a duration [start, end] on the (kind, id) track: Track
// then Span, for a one-off record. No-op on a registry that keeps no
// trace.
func (r *Registry) Span(kind TrackKind, id, name string, start, end Time) {
	r.Track(kind, id).Span(name, start, end)
}

// SpanArg is Span with a category string and a scalar argument attached.
func (r *Registry) SpanArg(kind TrackKind, id, name, cat string, start, end Time, arg int64) {
	r.Track(kind, id).SpanArg(name, cat, start, end, arg)
}

// Instant records a point event on the (kind, id) track.
func (r *Registry) Instant(kind TrackKind, id, name string, at Time) {
	r.Track(kind, id).Instant(name, at)
}

// InstantArg is Instant with a category string and scalar argument.
func (r *Registry) InstantArg(kind TrackKind, id, name, cat string, at Time, arg int64) {
	r.Track(kind, id).InstantArg(name, cat, at, arg)
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
	slices.SortFunc(out, func(a, b Event) int { return cmpTimeSeq(a.Start, a.seq, b.Start, b.seq) })
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

// cmpTimeSeq orders trace records by start time, then record order: the
// order every exporter emits them in. seq is unique within a registry, so
// the order is total.
func cmpTimeSeq(startA Time, seqA uint64, startB Time, seqB uint64) int {
	if c := cmp.Compare(startA, startB); c != 0 {
		return c
	}
	return cmp.Compare(seqA, seqB)
}

// WriteChromeTrace exports every retained trace record as Chrome
// trace_event JSON (the format Perfetto and chrome://tracing load): the
// lines a fresh TraceStreamer emits for r, wrapped as one document. Each
// TrackKind becomes a process, each track a named thread; durations are
// "X" complete events and instants "i" events, with virtual time mapped
// to microseconds at nanosecond resolution. Output is deterministic:
// tracks are sorted by (kind, id) and events by (time, insertion order).
func (r *Registry) WriteChromeTrace(w io.Writer) error {
	b := []byte("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	b, _, _ = NewTraceStreamer().Emit(b, r, ",\n", math.MaxInt)
	b = append(b, "\n]}\n"...)
	_, err := w.Write(b)
	return err
}

// appendEventLine appends one retained record as a single-line Chrome
// trace_event JSON object.
func appendEventLine(b []byte, rec spanRec, pid, tid int) []byte {
	if rec.phase == 'X' {
		b = append(b, `{"ph":"X","pid":`...)
	} else {
		b = append(b, `{"ph":"i","pid":`...)
	}
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"ts":`...)
	b = appendMicros(b, rec.start)
	if rec.phase == 'X' {
		b = append(b, `,"dur":`...)
		b = appendMicros(b, rec.end-rec.start)
	} else {
		b = append(b, `,"s":"t"`...)
	}
	b = append(b, `,"name":`...)
	b = AppendJSONString(b, rec.name)
	if rec.cat != "" {
		b = append(b, `,"cat":`...)
		b = AppendJSONString(b, rec.cat)
	}
	if rec.hasArg {
		b = append(b, `,"args":{"arg":`...)
		b = strconv.AppendInt(b, rec.arg, 10)
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendMicros appends ns as microseconds in %d.%03d form, which keeps
// exact nanosecond resolution without float formatting. Times are never
// negative; a negative remainder takes fmt so the bytes stay %d.%03d's.
func appendMicros(b []byte, ns Time) []byte {
	us, rem := ns/1000, ns%1000
	if rem < 0 {
		return fmt.Appendf(b, "%d.%03d", us, rem)
	}
	b = strconv.AppendInt(b, us, 10)
	return append(b, '.', byte('0'+rem/100), byte('0'+rem/10%10), byte('0'+rem%10))
}

// AppendJSONString appends s as a JSON string literal, exactly as
// json.Marshal writes it (serve's run-log events use it too). Names and
// track ids are printable ASCII with nothing to escape, so they go
// between quotes verbatim; anything else
// (control bytes, non-ASCII, quotes, backslashes and json.Marshal's HTML
// escapes of <, > and &) takes json.Marshal.
func AppendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, err := json.Marshal(s)
			if err != nil {
				panic(err) // strings always marshal
			}
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
