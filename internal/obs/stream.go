package obs

import (
	"cmp"
	"slices"
	"strconv"
)

// TraceStreamer converts a sequence of registries — typically the
// per-point child registries a sweep delivers in submission order —
// into an incremental Chrome trace_event stream; Registry.WriteChromeTrace
// is one Emit wrapped as a document. Each Emit call appends single-line
// JSON objects for every record retained in reg, preceded by process_name /
// thread_name metadata lines the first time a track kind or track
// appears. pid/tid assignment is stable across calls: a track keeps its
// tid for the streamer's lifetime, so a client concatenating
//
//	"[" + join(all emitted lines, ",") + "]"
//
// gets a valid trace_event JSON array loadable in Perfetto (Perfetto
// also accepts the unterminated array, which is what makes live piping
// work).
//
// Determinism: within one Emit, new tracks are discovered in sorted
// (kind, id) order and records are emitted in (start time, record
// order) order — so feeding the same registries in the same order
// always yields the same lines, which is what lets the serving layer's
// event-log replay be byte-exact.
type TraceStreamer struct {
	tids     map[trackKey]int
	next     [numTrackKinds]int
	kindSeen [numTrackKinds]bool
}

// flatEvent is one retained record placed in the stream's order.
type flatEvent struct {
	start    Time
	seq      uint64
	rec      *spanRec
	pid, tid int
}

// lineBytes is what a trace line is assumed to take when Emit sizes its
// output: event lines run 70–90 bytes.
const lineBytes = 96

// NewTraceStreamer returns an empty streamer. Use one per logical trace
// (per run); mixing runs would interleave their tid spaces.
func NewTraceStreamer() *TraceStreamer {
	return &TraceStreamer{tids: make(map[trackKey]int)}
}

// streamPid is the kind → process assignment.
func streamPid(k TrackKind) int { return int(k) + 1 }

// Emit appends to buf the trace_event lines for every record retained in
// reg, separated by sep, assigning stable pids/tids and putting metadata
// lines first for tracks and kinds seen for the first time. It formats at
// most limit lines and only counts the rest, so a caller that keeps a
// prefix pays for the prefix; tids are assigned to every new track either
// way, so a later call numbers tracks as if every line had been kept.
// total is how many lines reg yields, kept how many of them were appended
// (the first kept of total). A nil or trace-empty registry yields none.
func (ts *TraceStreamer) Emit(buf []byte, reg *Registry, sep string, limit int) (out []byte, kept, total int) {
	if reg == nil || len(reg.tracks) == 0 {
		return buf, 0, 0
	}
	keys := make([]trackKey, 0, len(reg.tracks))
	records := 0
	for key, t := range reg.tracks {
		if t.total == 0 {
			continue // resolved, never recorded on: not in the trace
		}
		keys = append(keys, key)
		records += len(t.ring)
	}
	slices.SortFunc(keys, func(a, b trackKey) int {
		if c := cmp.Compare(a.kind, b.kind); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})

	// At most two metadata lines per track, then the records.
	buf = slices.Grow(buf, min(limit, 2*len(keys)+records)*lineBytes)

	// Metadata first. Every new track gets its tid whether or not its
	// line fits.
	for _, key := range keys {
		if _, ok := ts.tids[key]; ok {
			continue
		}
		pid := streamPid(key.kind)
		if !ts.kindSeen[key.kind] {
			ts.kindSeen[key.kind] = true
			if total < limit {
				buf = appendMetaLine(appendSep(buf, sep, total), pid, 0, "process_name", key.kind.String())
			}
			total++
		}
		tid := ts.next[key.kind]
		ts.next[key.kind]++
		ts.tids[key] = tid
		if total < limit {
			buf = appendMetaLine(appendSep(buf, sep, total), pid, tid, "thread_name", key.id)
		}
		total++
	}
	meta := total
	total += records
	kept = min(total, limit)
	if kept <= meta {
		return buf, kept, total
	}

	evs := make([]flatEvent, 0, records)
	for _, key := range keys {
		t := reg.tracks[key]
		pid, tid := streamPid(key.kind), ts.tids[key]
		for i := range t.ring {
			rec := &t.ring[i]
			evs = append(evs, flatEvent{start: rec.start, seq: rec.seq, rec: rec, pid: pid, tid: tid})
		}
	}
	slices.SortFunc(evs, func(a, b flatEvent) int { return cmpTimeSeq(a.start, a.seq, b.start, b.seq) })
	for j, e := range evs[:kept-meta] {
		buf = appendEventLine(appendSep(buf, sep, meta+j), *e.rec, e.pid, e.tid)
	}
	return buf, kept, total
}

// appendSep appends sep before every line of an Emit call but its first.
func appendSep(buf []byte, sep string, line int) []byte {
	if line > 0 {
		buf = append(buf, sep...)
	}
	return buf
}

// appendMetaLine appends a process_name/thread_name metadata event.
func appendMetaLine(b []byte, pid, tid int, kind, name string) []byte {
	b = append(b, `{"ph":"M","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"name":`...)
	b = AppendJSONString(b, kind)
	b = append(b, `,"args":{"name":`...)
	b = AppendJSONString(b, name)
	return append(b, "}}"...)
}
