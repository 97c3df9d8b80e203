package serve

// run.go is the observability side of the service: one Run record per
// job execution, holding a deterministic append-only event log that SSE
// clients replay from the start. Because every simulation is a pure
// function of its config, the log for a given config is itself
// deterministic (same events, same bytes, at any sweep worker count), so
// "late attach" is trivial: replaying the log from index 0 reconstructs
// exactly what a from-the-beginning subscriber saw.
//
// Event log schema (event name → single-line JSON payload):
//
//	hello   {"id":..,"key":..,"scenario":..,"format":..}
//	state   {"state":"queued"|"running"|"done"|"failed"|"cancelled"}
//	point   {"i":I,"n":N}            one sweep point delivered, in index order
//	metrics SnapshotJSON of the run registry's merged prefix after point I
//	trace   [trace_event,...]        the point's retained trace records
//	dropped {"events":K}             trace budget exhausted; K records withheld
//	result  {"i":I,"data":"base64"}  the rendered artifact, 8 KiB chunks
//	done    {"status":..,"bytes":..,"sha256":..} or {"status":..,"code":..,"error":..}
//
// The `done` event is always the last entry; concatenating the decoded
// `result` chunks yields the final artifact byte-for-byte (the cache and
// the synchronous POST /v1/run response serve the same bytes).

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// RunState is the run lifecycle: queued → running → done|failed|cancelled.
type RunState string

const (
	RunQueued    RunState = "queued"
	RunRunning   RunState = "running"
	RunDone      RunState = "done"
	RunFailed    RunState = "failed"
	RunCancelled RunState = "cancelled"
)

// runIDLen is how much of the config hash names a run. 16 hex chars (64
// bits) cannot collide at service scale, and the prefix keeps run IDs
// 1:1 with singleflight keys: the run for a config IS the execution its
// waiters collapsed onto.
const runIDLen = 16

func runID(key string) string { return key[:runIDLen] }

// resultChunkBytes sizes the base64 result chunks. 8 KiB keeps a chunk
// well under typical SSE proxy buffer sizes while bounding per-event
// overhead.
const resultChunkBytes = 8 << 10

// Event is one entry of a run's append-only event log. ID is the log
// index, which doubles as the SSE `id:` field.
type Event struct {
	ID   int
	Name string
	Data string // single-line JSON
}

// Run is one job execution's observable record. All fields behind mu;
// readers use the accessors, subscribers poll wait.
type Run struct {
	id       string
	key      string
	scenario string
	format   string
	created  time.Time

	mu        sync.Mutex
	state     RunState
	points    int // sweep points delivered so far
	total     int // sweep points overall (0 until the first delivery)
	log       []Event
	notify    chan struct{} // closed and replaced on every append
	finished  bool
	watchers  int
	bytes     int
	sha       string
	errMsg    string
	queueWait time.Duration // wall time from admission to execution; logs only
}

func newRun(id, key, scenario, format string) *Run {
	run := &Run{
		id: id, key: key, scenario: scenario, format: format,
		created: time.Now(),
		state:   RunQueued,
		notify:  make(chan struct{}),
	}
	run.append("hello", fmt.Sprintf(`{"id":%s,"key":%s,"scenario":%s,"format":%s}`,
		jsonStr(id), jsonStr(key), jsonStr(scenario), jsonStr(format)))
	run.append("state", stateJSON(RunQueued))
	return run
}

func stateJSON(st RunState) string { return `{"state":` + jsonStr(string(st)) + `}` }

// jsonStr renders s as a JSON string literal.
func jsonStr(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // strings always marshal
	}
	return string(b)
}

// append adds one event to the log and wakes every subscriber. The log
// is append-only: indices, once assigned, never change, which is what
// makes replay-from-zero exact.
func (run *Run) append(name, data string) {
	run.mu.Lock()
	run.log = append(run.log, Event{ID: len(run.log), Name: name, Data: data})
	close(run.notify)
	run.notify = make(chan struct{})
	run.mu.Unlock()
}

// setRunning transitions queued → running (recorded in the log) and
// notes the wall-clock queue wait for the access log.
func (run *Run) setRunning() {
	run.mu.Lock()
	run.state = RunRunning
	run.queueWait = time.Since(run.created)
	run.log = append(run.log, Event{ID: len(run.log), Name: "state", Data: stateJSON(RunRunning)})
	close(run.notify)
	run.notify = make(chan struct{})
	run.mu.Unlock()
}

// notePoint records one delivered sweep point. The emitter calls this in
// submission-index order, so points is always i+1.
func (run *Run) notePoint(i, n int) {
	run.mu.Lock()
	run.points = i + 1
	run.total = n
	run.log = append(run.log, Event{ID: len(run.log),
		Name: "point", Data: fmt.Sprintf(`{"i":%d,"n":%d}`, i, n)})
	close(run.notify)
	run.notify = make(chan struct{})
	run.mu.Unlock()
}

// finish moves the run to its terminal state, appends the result chunks
// (on success) and the final done event, and returns the terminal state.
// Idempotent: only the first call appends anything.
func (run *Run) finish(res *jobResult) RunState {
	st := RunFailed
	code := http.StatusInternalServerError
	errMsg := "no result"
	var body []byte
	if res != nil {
		code, errMsg = res.status, res.errMsg
		switch {
		case res.status == http.StatusOK:
			st, errMsg = RunDone, ""
			body = res.body
		case res.status == http.StatusServiceUnavailable:
			st = RunCancelled
		}
	}
	run.finishWith(st, code, errMsg, body, false)
	return st
}

// finishWith is the shared terminal-state writer; cached marks runs
// synthesized from a cache hit rather than a fresh execution.
func (run *Run) finishWith(st RunState, code int, errMsg string, body []byte, cached bool) {
	run.mu.Lock()
	defer run.mu.Unlock()
	if run.finished {
		return
	}
	emit := func(name, data string) {
		run.log = append(run.log, Event{ID: len(run.log), Name: name, Data: data})
	}
	run.state = st
	emit("state", stateJSON(st))
	if st == RunDone {
		sum := sha256.Sum256(body)
		run.bytes, run.sha = len(body), hex.EncodeToString(sum[:])
		for i := 0; i*resultChunkBytes < len(body) || (i == 0 && len(body) == 0); i++ {
			end := (i + 1) * resultChunkBytes
			if end > len(body) {
				end = len(body)
			}
			chunk := base64.StdEncoding.EncodeToString(body[i*resultChunkBytes : end])
			emit("result", fmt.Sprintf(`{"i":%d,"data":"%s"}`, i, chunk))
		}
		emit("done", fmt.Sprintf(`{"status":"done","bytes":%d,"sha256":"%s","cached":%t}`,
			run.bytes, run.sha, cached))
	} else {
		run.errMsg = errMsg
		emit("done", fmt.Sprintf(`{"status":%s,"code":%d,"error":%s}`,
			jsonStr(string(st)), code, jsonStr(errMsg)))
	}
	run.finished = true
	close(run.notify)
	run.notify = make(chan struct{})
}

// wait returns the events at and after index from, the channel that
// closes on the next append, and whether the run is finished. When
// finished is true the returned slice extends to the end of the log (the
// log never grows past the done event), so a subscriber that drains it
// can close cleanly.
func (run *Run) wait(from int) (evs []Event, notify chan struct{}, finished bool) {
	run.mu.Lock()
	defer run.mu.Unlock()
	if from < len(run.log) {
		evs = run.log[from:] // append-only: this slice is immutable
	}
	return evs, run.notify, run.finished
}

func (run *Run) isFinished() bool {
	run.mu.Lock()
	defer run.mu.Unlock()
	return run.finished
}

// QueueWait reports wall time between admission and execution start
// (zero until the run starts). Access-log material, never in the event
// log.
func (run *Run) QueueWait() time.Duration {
	run.mu.Lock()
	defer run.mu.Unlock()
	return run.queueWait
}

func (run *Run) addWatcher() {
	run.mu.Lock()
	run.watchers++
	run.mu.Unlock()
}

func (run *Run) removeWatcher() {
	run.mu.Lock()
	run.watchers--
	run.mu.Unlock()
}

// Watchers reports the number of currently attached event subscribers.
func (run *Run) Watchers() int {
	run.mu.Lock()
	defer run.mu.Unlock()
	return run.watchers
}

// RunInfo is the JSON shape of GET /v1/runs and GET /v1/runs/{id}.
type RunInfo struct {
	ID       string   `json:"id"`
	Scenario string   `json:"scenario"`
	Format   string   `json:"format"`
	State    RunState `json:"state"`
	Points   int      `json:"points"`
	Total    int      `json:"total,omitempty"`
	Events   int      `json:"events"`
	Watchers int      `json:"watchers"`
	Bytes    int      `json:"bytes,omitempty"`
	SHA256   string   `json:"sha256,omitempty"`
	Error    string   `json:"error,omitempty"`
	Evicted  bool     `json:"evicted,omitempty"`
}

// Info snapshots the run for JSON rendering.
func (run *Run) Info() RunInfo {
	run.mu.Lock()
	defer run.mu.Unlock()
	return RunInfo{
		ID: run.id, Scenario: run.scenario, Format: run.format,
		State: run.state, Points: run.points, Total: run.total,
		Events: len(run.log), Watchers: run.watchers,
		Bytes: run.bytes, SHA256: run.sha, Error: run.errMsg,
	}
}

// runKeyInfo is the id → config mapping that outlives run eviction, so
// an evicted run whose artifact is still cached stays addressable.
type runKeyInfo struct{ key, scenario, format string }

// runKeysPerRecord bounds that mapping at this many ids per run record the
// registry may hold: it remembers the runKeysPerRecord*cap ids most
// recently admitted or looked up and forgets the rest, least recent
// first. A forgotten id answers 404 even while its artifact is cached;
// posting the config again serves the artifact and names the run anew.
const runKeysPerRecord = 16

// runRegistry holds the live and recently finished runs, bounded to cap
// records (finished runs evict FIFO; live runs are never evicted).
type runRegistry struct {
	mu    sync.Mutex
	runs  map[string]*Run
	order []*Run                  // admission order; exactly one entry per runs entry
	keys  lru[string, runKeyInfo] // each id costs 1; mu, not keys.mu, serializes it
	cap   int
}

func newRunRegistry(cap int) *runRegistry {
	return &runRegistry{runs: make(map[string]*Run), cap: cap,
		keys: lru[string, runKeyInfo]{budget: int64(runKeysPerRecord * cap), max: 1}}
}

// begin returns the run record for key, creating it (state queued) if
// absent or finished. Idempotent while a run is live: the async submit
// handler and the flight leader both call it and get the same record.
func (rr *runRegistry) begin(key, scenario, format string) *Run {
	id := runID(key)
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if run, ok := rr.runs[id]; ok && !run.isFinished() {
		return run
	}
	return rr.installLocked(newRun(id, key, scenario, format))
}

// cached returns the run record for key, synthesizing a finished record
// that replays the cached artifact when no record exists. This is how a
// cache hit — or an evicted run whose artifact survived — stays
// live-attachable: the synthesized log has the same hello/state/result/
// done skeleton (and identical result bytes) as the original execution,
// minus the per-point progress events that only exist while a sweep
// actually runs.
func (rr *runRegistry) cached(key, scenario, format string, body []byte) *Run {
	id := runID(key)
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if run, ok := rr.runs[id]; ok {
		return run
	}
	run := newRun(id, key, scenario, format)
	run.finishWith(RunDone, http.StatusOK, "", body, true)
	return rr.installLocked(run)
}

func (rr *runRegistry) installLocked(run *Run) *Run {
	if old, ok := rr.runs[run.id]; ok {
		for i, r := range rr.order {
			if r == old {
				rr.order = append(rr.order[:i], rr.order[i+1:]...)
				break
			}
		}
	}
	rr.runs[run.id] = run
	rr.order = append(rr.order, run)
	rr.keys.add(run.id, runKeyInfo{run.key, run.scenario, run.format}, 1)
	for len(rr.runs) > rr.cap {
		evicted := false
		for i, r := range rr.order {
			if r.isFinished() {
				rr.order = append(rr.order[:i], rr.order[i+1:]...)
				delete(rr.runs, r.id)
				evicted = true
				break
			}
		}
		if !evicted {
			break // every record is live; never evict a running job
		}
	}
	return run
}

// get returns the run record for id, or nil.
func (rr *runRegistry) get(id string) *Run {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return rr.runs[id]
}

// keyFor returns the config mapping for id, surviving record eviction.
func (rr *runRegistry) keyFor(id string) (runKeyInfo, bool) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if el, ok := rr.keys.items[id]; ok {
		return rr.keys.touch(el), true
	}
	return runKeyInfo{}, false
}

// list snapshots every retained run in admission order.
func (rr *runRegistry) list() []RunInfo {
	rr.mu.Lock()
	order := append([]*Run(nil), rr.order...)
	rr.mu.Unlock()
	out := make([]RunInfo, len(order))
	for i, run := range order {
		out[i] = run.Info()
	}
	return out
}

// runEmitter adapts a Run to sweep.Emitter: each in-order point delivery
// appends a point event, a metrics snapshot of the run registry's merged
// prefix, and the point's trace records (bounded by a per-run budget —
// past it, an explicit dropped event replaces the data, so a consumer
// sees the truncation instead of inferring it). PointDone runs on the
// sweep caller's goroutine, single-threaded per run, and everything it
// appends is a pure function of the delivery sequence — which the
// ordered-emission engine already proves is worker-count invariant — so
// the whole log is deterministic.
type runEmitter struct {
	run    *Run
	reg    *obs.Registry // the per-run parent registry (merged prefix state)
	ts     *obs.TraceStreamer
	budget int // trace event lines still allowed into the log
}

func newRunEmitter(run *Run, reg *obs.Registry, traceBudget int) *runEmitter {
	return &runEmitter{run: run, reg: reg, ts: obs.NewTraceStreamer(), budget: traceBudget}
}

func (em *runEmitter) PointDone(i, n int, child *obs.Registry) {
	em.run.notePoint(i, n)
	var buf bytes.Buffer
	em.reg.SnapshotJSON(&buf)
	em.run.append("metrics", buf.String())
	lines := em.ts.Emit(child)
	kept := lines
	if len(kept) > em.budget {
		kept = kept[:em.budget]
	}
	em.budget -= len(kept)
	if len(kept) > 0 {
		em.run.append("trace", "["+strings.Join(kept, ",")+"]")
	}
	if dropped := len(lines) - len(kept); dropped > 0 {
		em.run.append("dropped", fmt.Sprintf(`{"events":%d}`, dropped))
	}
}
