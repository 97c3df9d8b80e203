package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// maxSpans bounds the in-memory trace of one run (a serve workload
// issues several hundred thousand requests); spans past it are counted
// as dropped, which the trace file states.
const maxSpans = 50_000

// span is one timed call into a layer, recorded by the benchmark around
// the call (spans inside the program are a later change). Start and End
// are nanoseconds since the process started; Parent is the id of the
// span that caused this one (0 for a root); spans of one operation share
// Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Attr   string `json:"attr,omitempty"`
}

// tracer collects spans in memory. A nil *tracer records nothing, so an
// untraced run pays one nil check per call site.
type tracer struct {
	mu      sync.Mutex
	spans   []span
	dropped int
}

// begin opens a span and returns its id (0 when not recording).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(processStart).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span begin returned; attr is a free-form note (the
// X-Cache source of a request, say).
func (t *tracer) end(id int, attr string) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(processStart).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].Attr = attr
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere.
func (t *tracer) add(name string, parent, op int, start, end int64) {
	if id := t.begin(name, parent, op); id != 0 {
		t.mu.Lock()
		t.spans[id-1].Start, t.spans[id-1].End = start, end
		t.mu.Unlock()
	}
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := make(map[string]time.Duration)
	if t == nil {
		return out
	}
	covered := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		covered[s.Parent] += s.End - s.Start
	}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered[s.ID])
	}
	return out
}

// traceFile is the on-disk shape of benchmark/out/trace-<workload>.json.
type traceFile struct {
	Stamp   stamp  `json:"stamp"`
	Dropped int    `json:"dropped_spans"`
	Spans   []span `json:"spans"`
}

func (t *tracer) write(path string, st stamp) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{Stamp: st, Dropped: t.dropped, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// checkTrace verifies a trace file: valid JSON, every span closed, and
// every child inside its parent's interval.
func checkTrace(data []byte) error {
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return err
	}
	if len(tf.Spans) == 0 {
		return fmt.Errorf("trace holds no spans")
	}
	for i, s := range tf.Spans {
		if s.ID != i+1 || s.End < s.Start {
			return fmt.Errorf("span %d (%s): id %d, interval [%d, %d]", i+1, s.Name, s.ID, s.Start, s.End)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent >= s.ID {
			return fmt.Errorf("span %d (%s): parent %d opened after it", s.ID, s.Name, s.Parent)
		}
		p := tf.Spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d, %d] leaves its parent %d (%s) [%d, %d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}
