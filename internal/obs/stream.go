package obs

import (
	"sort"
	"strconv"
)

// TraceStreamer converts a sequence of registries — typically the
// per-point child registries a sweep delivers in submission order —
// into an incremental Chrome trace_event stream; Registry.WriteChromeTrace
// is one Emit wrapped as a document. Each Emit call returns single-line
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

// NewTraceStreamer returns an empty streamer. Use one per logical trace
// (per run); mixing runs would interleave their tid spaces.
func NewTraceStreamer() *TraceStreamer {
	return &TraceStreamer{tids: make(map[trackKey]int)}
}

// streamPid is the kind → process assignment.
func streamPid(k TrackKind) int { return int(k) + 1 }

// Emit returns the trace_event lines for every record retained in reg,
// assigning stable pids/tids and prepending metadata lines for tracks
// and kinds seen for the first time. A nil or trace-empty registry
// yields nil.
func (ts *TraceStreamer) Emit(reg *Registry) []string {
	if reg == nil || len(reg.tracks) == 0 {
		return nil
	}
	keys := make([]trackKey, 0, len(reg.tracks))
	for key := range reg.tracks {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kind != keys[j].kind {
			return keys[i].kind < keys[j].kind
		}
		return keys[i].id < keys[j].id
	})

	var lines []string
	for _, key := range keys {
		if _, ok := ts.tids[key]; ok {
			continue
		}
		if !ts.kindSeen[key.kind] {
			ts.kindSeen[key.kind] = true
			lines = append(lines, chromeMetaLine(streamPid(key.kind), 0, "process_name", key.kind.String()))
		}
		tid := ts.next[key.kind]
		ts.next[key.kind]++
		ts.tids[key] = tid
		lines = append(lines, chromeMetaLine(streamPid(key.kind), tid, "thread_name", key.id))
	}

	type flatEvent struct {
		rec      spanRec
		pid, tid int
	}
	var evs []flatEvent
	for _, key := range keys {
		for _, rec := range reg.tracks[key].ring {
			evs = append(evs, flatEvent{rec: rec, pid: streamPid(key.kind), tid: ts.tids[key]})
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].rec.start != evs[j].rec.start {
			return evs[i].rec.start < evs[j].rec.start
		}
		return evs[i].rec.seq < evs[j].rec.seq
	})
	for _, e := range evs {
		lines = append(lines, chromeEventLine(e.rec, e.pid, e.tid))
	}
	return lines
}

// chromeMetaLine encodes a process_name/thread_name metadata event.
func chromeMetaLine(pid, tid int, kind, name string) string {
	return `{"ph":"M","pid":` + strconv.Itoa(pid) + `,"tid":` + strconv.Itoa(tid) +
		`,"name":` + jstr(kind) + `,"args":{"name":` + jstr(name) + `}}`
}
