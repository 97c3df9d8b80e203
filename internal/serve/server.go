package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// Options configures a Server. The zero value picks sane daemon
// defaults.
type Options struct {
	// Workers bounds the number of jobs executing simulations at once
	// (default 2).
	Workers int
	// PerScenario bounds concurrently running jobs per scenario name
	// (default 1), so one hot scenario cannot monopolize every worker.
	PerScenario int
	// QueueDepth bounds jobs in the system, running plus waiting
	// (default 16). Beyond it, submissions get 429 + Retry-After.
	QueueDepth int
	// CacheBytes is the result cache's payload budget (default 64 MiB).
	CacheBytes int64
	// SweepWorkers is the per-job sweep.Engine worker count (default
	// GOMAXPROCS/Workers, at least 1), so concurrent jobs share the host
	// cores instead of oversubscribing them.
	SweepWorkers int
	// Shards is the intra-run lane worker count the engine applies to
	// the simulations it executes (armci.Config.Shards; default 0, one
	// lane worker). Execution-side only: shard count is not part of a
	// job's identity, so it never changes which cache entry a config
	// maps to nor the bytes that entry holds.
	Shards int
	// AccessLog, when non-nil, receives one structured logfmt line per
	// request. nil (the default) disables request logging entirely.
	AccessLog io.Writer

	// StoreDir, when non-empty, enables the persistent disk tier: cache
	// fills write through to a content-addressed on-disk store, and a
	// cache miss consults disk (verified by re-hash) before executing.
	// Results survive restarts. /healthz reports {"state":"starting"}
	// (503) until the startup scan of an existing store finishes.
	StoreDir string
	// Self is this replica's advertised host:port in a cluster, e.g.
	// "127.0.0.1:8081". Required when Peers is set; it must appear in
	// Peers. Ignored otherwise.
	Self string
	// Peers is the full static cluster membership, Self included. When
	// set (≥2 members), job keys map onto a consistent-hash ring:
	// non-owned synchronous submissions are proxied to the owner, and a
	// local cold miss probes the other members for an already-computed
	// artifact (byte-verified peer cache-fill) before executing.
	Peers []string
	// PeerTimeout bounds one peer fill attempt, dial included (default
	// 2s). Proxied job submissions are bounded by jobTimeout instead.
	PeerTimeout time.Duration

	// runHistory bounds retained run records, live plus finished
	// (default 64). Finished runs evict FIFO; live runs never evict.
	// Tests lower it to drive eviction.
	runHistory int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.PerScenario <= 0 {
		o.PerScenario = 1
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = 64 << 20
	}
	if o.SweepWorkers <= 0 {
		o.SweepWorkers = runtime.GOMAXPROCS(0) / o.Workers
		if o.SweepWorkers < 1 {
			o.SweepWorkers = 1
		}
	}
	if o.runHistory <= 0 {
		o.runHistory = 64
	}
	return o
}

// retryAfterSeconds is the Retry-After hint attached to overload
// responses: long enough for a queue slot to open at typical job
// latency, short enough that a closed-loop client keeps the queue warm.
const retryAfterSeconds = 1

// maxBodyBytes bounds a job submission's body; past it the answer is 413.
const maxBodyBytes = 1 << 20

// jobTimeout aborts a single job's execution: 504, nothing cached.
const jobTimeout = 2 * time.Minute

// traceBudget caps the trace-event lines admitted into one run's event
// log; past it, explicit dropped events record the truncation.
const traceBudget = 4096

// wallLatencyBounds buckets wall-clock job latency: 1 ms to ~9 min in
// powers of two. (The obs default bounds are virtual-time scaled and far
// too fine for host wall clock.)
var wallLatencyBounds = obs.ExpBounds(1<<20, 2, 20)

// jobResult is what one execution (or admission rejection) produces; all
// waiters collapsed onto the run receive the same value.
type jobResult struct {
	status     int
	body       []byte // artifact (200) or error text
	errMsg     string
	retryAfter int    // seconds; nonzero adds a Retry-After header
	src        string // non-empty overrides the X-Cache source ("peer")
}

// Server executes simulation jobs behind a result cache and admission
// control. Build with New, mount Handler on an http.Server, call Drain
// then Close on shutdown.
type Server struct {
	// The server's own tallies, one field per counter it exposes, bumped
	// with atomic.AddUint64 and attached once, by attachCounts. First in
	// the struct, so 64-bit aligned.
	cacheHits, cacheMisses, diskHits, diskMisses                   uint64
	abandoned, flightShared, panicked, rejects, exports, putErrors uint64
	proxyErrors, proxied, fillErrors, fills, fillMisses            uint64

	opts   Options
	memo   *parseMemo // raw body → identity, in front of parseJob
	cache  *Cache
	flight *flightGroup
	runs   *runRegistry

	labels   map[string]*label    // every label a job can carry; read-only after NewServer
	finished map[RunState]*uint64 // runs.finished, one slot per terminal state

	// Cluster + persistence plane; all nil/false when unconfigured.
	store       *Store          // disk tier under the LRU
	ring        *cluster.Ring   // key → owner map shared by every replica
	filler      *cluster.Filler // verified peer cache-fill client
	proxyClient *http.Client    // owner-forwarding client
	starting    atomic.Bool     // true until the startup store scan ends

	engine *sweep.Engine // the one execution plan, shared by every job
	slots  chan struct{} // jobs executing, capacity Workers
	queue  chan struct{} // jobs in system, capacity QueueDepth

	// The obs registry is single-threaded by design; regMu serializes
	// what the server writes into it (latency histograms, queue-depth
	// gauges, the gauges set at scrape) and the /metrics exposition.
	// Counts are attached fields and take no lock.
	regMu sync.Mutex
	reg   *obs.Registry

	base      context.Context
	stop      context.CancelFunc
	draining  atomic.Bool
	drainCh   chan struct{} // closed by Drain; SSE streams watch it
	drainOnce sync.Once
	logMu     sync.Mutex // serializes AccessLog lines
	started   time.Time
	mux       *http.ServeMux
}

// New builds a Server, panicking on invalid cluster/store options. Use
// NewServer where configuration comes from user input (flags).
func New(opts Options) *Server {
	s, err := NewServer(opts)
	if err != nil {
		panic("serve: " + err.Error())
	}
	return s
}

// NewServer builds a Server. The returned server is ready; it owns one
// sweep engine, Workers execution slots and an empty hot cache. With
// StoreDir set it also owns the disk tier (scanned in the background —
// /healthz says "starting" until done); with Peers set it participates
// in the consistent-hash cluster.
func NewServer(opts Options) (*Server, error) {
	// The execution plan is checked here, once, so a bad value stops the
	// daemon at start-up instead of failing every job it later accepts.
	if opts.Shards < 0 {
		return nil, fmt.Errorf("Options.Shards must be non-negative, got %d", opts.Shards)
	}
	if opts.SweepWorkers < 0 {
		return nil, fmt.Errorf("Options.SweepWorkers must be non-negative, got %d", opts.SweepWorkers)
	}
	opts = opts.withDefaults()
	base, stop := context.WithCancel(context.Background())
	s := &Server{
		opts:    opts,
		memo:    &parseMemo{lru: lru[memoKey, *identity]{budget: parseMemoBytes, max: parseMemoMaxEntry}},
		cache:   NewCache(opts.CacheBytes),
		flight:  newFlightGroup(),
		runs:    newRunRegistry(opts.runHistory),
		engine:  sweep.NewSharded(opts.SweepWorkers, opts.Shards, nil),
		slots:   make(chan struct{}, opts.Workers),
		queue:   make(chan struct{}, opts.QueueDepth),
		reg:     obs.New(),
		base:    base,
		stop:    stop,
		drainCh: make(chan struct{}),
		started: time.Now(),
	}
	if opts.StoreDir != "" {
		st, err := OpenStore(opts.StoreDir)
		if err != nil {
			return nil, err
		}
		s.store = st
		// Count existing entries off the request path: Get/Put read disk
		// directly, so only /healthz waits on the scan.
		s.starting.Store(true)
		go func() {
			st.Scan()
			s.starting.Store(false)
		}()
	}
	if len(opts.Peers) > 0 {
		ring, err := cluster.NewRing(opts.Self, opts.Peers, cluster.DefaultVnodes)
		if err != nil {
			return nil, err
		}
		s.ring = ring
		s.filler = cluster.NewFiller(opts.PeerTimeout)
		// A proxied job runs to completion on the owner, so the forwarding
		// client must outlive the job budget, not the fill budget.
		s.proxyClient = &http.Client{Timeout: jobTimeout + 10*time.Second}
	}
	s.attachCounts()
	s.mux = http.NewServeMux()
	// The job API lives under /v1; /healthz and /metrics are
	// infrastructure probes, not API, and stay unversioned.
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/runs", s.handleRuns)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleRunGet)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.handleRunEvents)
	s.mux.HandleFunc("POST /v1/compose", s.handleCompose)
	// Result export: serves already-materialized artifacts (hot LRU or
	// disk) to cluster peers; never triggers execution. Useful solo too —
	// it is the lookup-by-hash face of the content-addressed store.
	s.mux.HandleFunc("GET /v1/results/{hash}", s.handleResult)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the HTTP handler to mount (wrapped in the request
// logger when Options.AccessLog is set).
func (s *Server) Handler() http.Handler {
	if s.opts.AccessLog != nil {
		return s.withAccessLog(s.mux)
	}
	return s.mux
}

// Drain flips the server into draining mode: /healthz answers 503 so
// load balancers stop routing here, new job submissions are refused, and
// every attached SSE stream receives a terminal drain event and closes
// (so http.Server.Shutdown is not held open by live-attach clients).
// In-flight jobs keep running; pair with http.Server.Shutdown to wait
// for them.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.drainOnce.Do(func() { close(s.drainCh) })
}

// Close cancels the server's base context, aborting still-running jobs
// at their next sweep-point boundary. Call after the HTTP listener has
// shut down (or timed out doing so).
func (s *Server) Close() { s.stop() }

// --- metrics ---

// label is what the server keeps per scenario label: its counts and its
// PerScenario concurrency cap.
type label struct {
	requests, submits uint64 // first: attached to the registry, so 64-bit aligned
	sem               chan struct{}
}

// attachCounts builds the per-label and per-state slots and attaches every
// count the server, its cache, its memo and its store keep: the store's
// only with a store, the ring's only with peers.
func (s *Server) attachCounts() {
	fields := map[string]*uint64{
		"serve/cache.hits":           &s.cacheHits,
		"serve/cache.misses":         &s.cacheMisses,
		"serve/cache.evictions":      &s.cache.evictions,
		"serve/parse_memo.hits":      &s.memo.hits,
		"serve/parse_memo.misses":    &s.memo.misses,
		"serve/parse_memo.evictions": &s.memo.evictions,
		"serve/requests.abandoned":   &s.abandoned,
		"serve/flight.shared":        &s.flightShared,
		"serve/jobs.panicked":        &s.panicked,
		"serve/admission.rejects":    &s.rejects,
		"serve/result_exports":       &s.exports,
	}
	s.finished = map[RunState]*uint64{RunDone: new(uint64), RunFailed: new(uint64), RunCancelled: new(uint64)}
	for st, p := range s.finished {
		fields["serve/runs.finished{state="+string(st)+"}"] = p
	}
	s.labels = map[string]*label{composeLabel: {}}
	for _, p := range scenario.Patterns() {
		if p.Named() {
			s.labels[p.Name] = &label{}
		}
	}
	for name, l := range s.labels {
		l.sem = make(chan struct{}, s.opts.PerScenario)
		fields["serve/requests{scenario="+name+"}"] = &l.requests
		fields["serve/submits{scenario="+name+"}"] = &l.submits
	}
	if s.store != nil {
		fields["serve/disk_hits"] = &s.diskHits
		fields["serve/disk_misses"] = &s.diskMisses
		fields["serve/store.put_errors"] = &s.putErrors
		fields["serve/store.quarantined"] = &s.store.quarantined
	}
	if s.ring != nil {
		fields["serve/proxy_errors"] = &s.proxyErrors
		fields["serve/proxied_jobs"] = &s.proxied
		fields["serve/peer_fill_errors"] = &s.fillErrors
		fields["serve/peer_fills"] = &s.fills
		fields["serve/peer_fill_misses"] = &s.fillMisses
	}
	for name, p := range fields {
		s.reg.Attach(name, p)
	}
}

func (s *Server) noteQueueDepth() {
	d := int64(len(s.queue))
	s.regMu.Lock()
	s.reg.Gauge("serve/queue.depth").Set(d)
	s.reg.Gauge("serve/queue.depth_max").SetMax(d)
	s.regMu.Unlock()
}

func (s *Server) observeLatency(scenario string, d time.Duration) {
	s.regMu.Lock()
	s.reg.Histogram("serve/run.latency_ns{scenario="+scenario+"}", wallLatencyBounds).
		Observe(d.Nanoseconds())
	s.regMu.Unlock()
}

// --- handlers ---

// The three POST handlers differ only in which envelope they decode and
// whether the job is served synchronously (the artifact in the response
// body) or submitted (202 + run record, SSE live-attachable while it
// executes). POST /v1/compose picks with `?async=1`.

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.handleJob(w, r, scenarioEnvelope, false)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.handleJob(w, r, scenarioEnvelope, true)
}

func (s *Server) handleCompose(w http.ResponseWriter, r *http.Request) {
	async := false
	if r.URL.RawQuery != "" { // parsing a query allocates its map even when there is none
		v := r.URL.Query().Get("async")
		async = v != "" && v != "0" && v != "false"
	}
	s.handleJob(w, r, composeEnvelope, async)
}

// handleJob answers a submission. Lookup order: the parse memo for the
// body's exact bytes — a hit is the job's identity with no decode, canon,
// marshal or hash — else the full strict parse, whose identity the memo
// keeps from then on; then this replica's answer tiers, hot LRU before
// verified disk load. Only a job neither tier holds goes on to serveJob
// or submitJob, and those need the canonical body and the spec: if the
// memo supplied the identity the body is parsed now, which next to a
// proxy hop or an execution (both ≥ 100 parses) is nothing.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request, kind envelopeKind, async bool) {
	noStore(w)
	if s.draining.Load() {
		unavailable(w)
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		// Never parsed, never memoised. A read cut short answers what
		// scenario.Decode answered when it did the reading itself.
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			tooLarge(w)
		} else {
			badRequest(w, fmt.Errorf("bad job config: %w", err))
		}
		return
	}
	var j job
	id := s.memo.get(kind, raw)
	if id != nil {
		access(r).setParse("memo")
	} else {
		access(r).setParse("full")
		if j, err = parseJob(bytes.NewReader(raw), kind.new()); err != nil {
			badRequest(w, err)
			return
		}
		id = j.identity
		s.memo.put(kind, raw, id)
	}
	access(r).setScenario(id.scenario)
	if async {
		atomic.AddUint64(&s.labels[id.scenario].submits, 1)
	} else {
		atomic.AddUint64(&s.labels[id.scenario].requests, 1)
	}

	a, src := s.lookupLocal(id.key)
	if src == "hit" {
		atomic.AddUint64(&s.cacheHits, 1)
	} else {
		atomic.AddUint64(&s.cacheMisses, 1)
		if src == "" && s.store != nil {
			atomic.AddUint64(&s.diskMisses, 1)
		}
	}
	if src != "" {
		access(r).setCache(src)
		if async {
			run := s.runs.cached(id.key, id.scenario, id.format, a.body)
			writeJSON(w, http.StatusOK, run.Info())
		} else {
			s.writeArtifact(w, id, src, a.body)
		}
		return
	}

	if j.identity == nil {
		if j, err = parseJob(bytes.NewReader(raw), kind.new()); err != nil {
			panic("serve: memoised body no longer parses: " + err.Error())
		}
	}
	if async {
		s.submitJob(w, r, j)
	} else {
		s.serveJob(w, r, j)
	}
}

// serveJob is the synchronous path, shared by POST /v1/run and POST
// /v1/compose, of a job this replica's own tiers do not hold: when
// clustered and this replica does not own the key, a proxy to the ring
// owner; only after that does the job reach singleflight and (behind a
// last peer cache-fill probe) cold execution.
func (s *Server) serveJob(w http.ResponseWriter, r *http.Request, j job) {
	// If another replica owns this key, hand the job over —
	// the owner is where the artifact accumulates (LRU + disk), so the
	// cluster keeps one durable home per key instead of N cold copies.
	// A dead or draining owner falls through to local execution.
	if owner, ok := s.proxyTarget(r, j.key); ok {
		if s.proxyJob(w, r, j, owner) {
			return
		}
	}

	res, shared, err := s.flight.do(r.Context(), s.base, j.key, func(ctx context.Context) *jobResult {
		return s.runJob(ctx, j, false)
	})
	if err != nil {
		// The client abandoned the request; the connection is gone, so
		// there is nobody to write to.
		atomic.AddUint64(&s.abandoned, 1)
		return
	}
	src := "miss"
	if shared {
		src = "shared"
		atomic.AddUint64(&s.flightShared, 1)
	}
	if res.src != "" {
		src = res.src // satisfied by a peer fill, not an execution
	}
	access(r).setCache(src)
	if run := s.runs.get(runID(j.key)); run != nil {
		access(r).setQueueWait(run.QueueWait())
	}
	if res.status != http.StatusOK {
		jobError(w, res)
		return
	}
	s.writeArtifact(w, j.identity, src, res.body)
}

// submitJob is the asynchronous path, shared by POST /v1/runs and POST
// /v1/compose?async=1, of a job this replica's own tiers do not hold (one
// they hold was answered 200 with a finished run record): an immediate
// 202 run record, followed via GET /v1/runs/{id} or SSE. Async
// submissions never proxy: the run record (its ID, its SSE stream) lives
// where the client submitted, so handing the job to another replica would
// orphan the follow-up URLs. Execution still probes peers before going
// cold.
func (s *Server) submitJob(w http.ResponseWriter, r *http.Request, j job) {
	access(r).setCache("miss")

	// Create the record before launching so a GET /v1/runs/{id} issued right
	// after the 202 can never race a not-yet-registered run.
	run := s.runs.begin(j.key, j.scenario, j.format)
	s.flight.start(s.base, j.key, func(ctx context.Context) *jobResult {
		return s.runJob(ctx, j, true)
	})
	writeJSON(w, http.StatusAccepted, run.Info())
}

// writeArtifact answers 200 with an artifact. The per-key header values
// are the identity's own slices (see identity: shared, never mutated).
func (s *Server) writeArtifact(w http.ResponseWriter, id *identity, src string, body []byte) {
	h := w.Header()
	h["X-Config-Hash"] = id.hdr[0:1:1]
	h["X-Scenario"] = id.hdr[1:2:2]
	h["Content-Type"] = id.hdr[2:3:3]
	h["X-Cache"] = []string{src}
	if s.ring != nil {
		// Routing visibility: which replica the ring maps this key to and
		// which one actually produced this response. The cluster drill
		// (cmd/simd's TestClusterDrill) picks its kill target by X-Owner.
		h.Set("X-Owner", s.ring.Owner(id.key))
		h.Set("X-Served-By", s.ring.Self())
	}
	w.Write(body)
}

func contentTypeFor(format string) string {
	switch format {
	case "csv":
		return "text/csv; charset=utf-8"
	case "text":
		return "text/plain; charset=utf-8"
	case "json":
		return "application/json"
	}
	return ""
}

// handleScenarios is GET /v1/scenarios: the registry, self-described.
// Named scenarios — patterns with no axes, runnable by name via POST
// /v1/run — come first as kind "scenario" with their resolved defaults;
// the traffic patterns (kind "pattern", usable as POST /v1/compose
// phases, as the named scenarios also are) follow with the orthogonal
// axes they consume. Clients build submissions from this listing instead
// of hard-coding names and parameter sets.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name     string         `json:"name"`
		Kind     string         `json:"kind"` // scenario | pattern
		Doc      string         `json:"doc"`
		Params   bench.Schema   `json:"params"`
		Defaults *wireParams    `json:"defaults,omitempty"` // scenarios only
		Axes     *scenario.Axes `json:"axes,omitempty"`     // patterns only
	}
	pats := scenario.Patterns()
	var named, composable []entry
	for i := range pats {
		p := &pats[i]
		e := entry{Name: p.Name, Doc: p.Doc, Params: p.Params}
		if !p.Named() {
			e.Kind, e.Axes = "pattern", &p.Axes
			composable = append(composable, e)
			continue
		}
		defaults, err := p.Params.Resolve(nil)
		if err != nil {
			panic("serve: scenario " + p.Name + " rejects its own defaults: " + err.Error())
		}
		e.Kind, e.Defaults = "scenario", (*wireParams)(&defaults)
		named = append(named, e)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(append(named, composable...))
}

// handleHealthz answers readiness probes. Both not-ready conditions are
// 503, but the JSON state field tells an operator (or a rolling deploy)
// which one they are looking at: "starting" means the disk-store scan is
// still running and the replica will come up on its own; "draining"
// means it is going away and traffic must move off.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"state": "draining"})
	case s.starting.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"state": "starting"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{
			"state": "ok",
			"up":    time.Since(s.started).Round(time.Second).String(),
		})
	}
}

// handleMetrics sets the gauges that are read, not counted — what the
// cache, the memo and the store hold now — and writes the exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	s.regMu.Lock()
	s.cache.setGauges(s.reg, "serve/cache")
	s.memo.setGauges(s.reg, "serve/parse_memo")
	if s.store != nil {
		s.reg.Gauge("serve/store.entries").Set(s.store.entries.Load())
	}
	err := s.reg.WritePrometheus(&buf)
	s.regMu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	noStore(w)
	w.Write(buf.Bytes())
}

// --- execution ---

// runJob is one job execution: admission, an execution slot, the
// simulation sweep (streamed into the run's event log point by point),
// rendering, and cache fill. It runs in the flight leader's goroutine;
// ctx is the collapsed run context (cancelled when every waiter is gone,
// the job times out, or the server closes). observe is set when an
// asynchronous submission started the execution: only then does it record
// per-point metrics and trace.
func (s *Server) runJob(ctx context.Context, j job, observe bool) (res *jobResult) {
	run := s.runs.begin(j.key, j.scenario, j.format)
	defer func() {
		if p := recover(); p != nil {
			atomic.AddUint64(&s.panicked, 1)
			res = &jobResult{status: http.StatusInternalServerError,
				errMsg: fmt.Sprintf("scenario %s panicked: %v", j.scenario, p)}
		}
		atomic.AddUint64(s.finished[run.finish(res)], 1)
	}()

	// Last exit before paying for execution: another replica may already
	// hold this artifact (it is a pure function of the key, so anyone's
	// copy is authoritative). Runs inside the singleflight leader, so
	// concurrent misses probe the cluster once, not once per waiter.
	if res := s.peerFill(ctx, j); res != nil {
		return res
	}

	// Admission: a full queue rejects immediately — shedding load beats
	// stacking unbounded latency.
	select {
	case s.queue <- struct{}{}:
	default:
		atomic.AddUint64(&s.rejects, 1)
		return &jobResult{status: http.StatusTooManyRequests,
			errMsg: "job queue full", retryAfter: retryAfterSeconds}
	}
	s.noteQueueDepth()
	defer func() {
		<-s.queue
		s.noteQueueDepth()
	}()

	// Per-scenario cap, then an execution slot. Both waits abort if every
	// client interested in this run has gone away.
	sem := s.labels[j.scenario].sem
	select {
	case sem <- struct{}{}:
	case <-ctx.Done():
		return cancelResult(ctx)
	}
	defer func() { <-sem }()

	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		return cancelResult(ctx)
	}
	defer func() { <-s.slots }()
	run.setRunning()

	// Per-run observability, for an execution asked to be observed: the
	// sweep's children merge into a private registry (the shared engine
	// has no parent of its own), and each in-order point delivery appends
	// point/metrics/trace events to the run's log. Otherwise there is no
	// registry and the run records its points alone. Everything streamed
	// is a pure function of the delivery sequence, so the log is
	// byte-identical at any SweepWorkers setting.
	runCtx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	var em sweep.Emitter = run
	if observe {
		runReg := obs.New(obs.WithTrackCap(runTrackCap))
		runCtx = sweep.WithRegistry(runCtx, runReg)
		em = newRunEmitter(run, runReg, traceBudget)
	}
	runCtx = sweep.WithEmitter(runCtx, em)

	t0 := time.Now()
	body, err := j.exec(runCtx, s.engine)
	if runCtx.Err() != nil {
		// The work was cut short; any partial artifact must never be
		// served or cached.
		return cancelResult(runCtx)
	}
	if err != nil {
		return &jobResult{status: http.StatusBadRequest, errMsg: err.Error()}
	}
	s.observeLatency(j.scenario, time.Since(t0))
	s.fill(j.identity, body, sha256Hex(body))
	return &jobResult{status: http.StatusOK, body: body}
}

// runTrackCap bounds each per-run trace track's ring. Service jobs keep
// a shallow window (the event log's traceBudget is the real bound);
// paper-scale tracing stays the CLI drivers' business.
const runTrackCap = 64

func cancelResult(ctx context.Context) *jobResult {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return &jobResult{status: http.StatusGatewayTimeout, errMsg: "job timed out"}
	}
	return &jobResult{status: http.StatusServiceUnavailable,
		errMsg: "job cancelled", retryAfter: retryAfterSeconds}
}

// renderArtifact renders a completed grid in the requested format.
func renderArtifact(g *bench.Grid, format string) ([]byte, error) {
	var buf bytes.Buffer
	switch format {
	case "csv":
		g.RenderCSV(&buf)
	case "text":
		g.Render(&buf)
	case "json":
		if err := g.RenderJSON(&buf); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown format %q", format)
	}
	return buf.Bytes(), nil
}
