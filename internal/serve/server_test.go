package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// fastJob is a micro-scenario config small enough that a test run takes
// milliseconds.
const fastJob = `{"scenario":"micro","params":{"sizes":[64],"iters":1}}`

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	if opts.SweepWorkers == 0 {
		opts.SweepWorkers = 1
	}
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// The central contract: a cached response is byte-identical to the cold
// one, and the X-Cache header reports the path taken.
func TestRunColdThenCachedByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	cold, coldBody := post(t, ts, fastJob)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold run: status %d, body %s", cold.StatusCode, coldBody)
	}
	if got := cold.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("cold X-Cache = %q, want miss", got)
	}
	if len(coldBody) == 0 {
		t.Fatal("cold run returned an empty artifact")
	}

	hot, hotBody := post(t, ts, fastJob)
	if hot.StatusCode != http.StatusOK {
		t.Fatalf("cached run: status %d", hot.StatusCode)
	}
	if got := hot.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("cached X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(coldBody, hotBody) {
		t.Errorf("cached response differs from cold:\ncold: %s\nhot:  %s", coldBody, hotBody)
	}
	if ch, hh := cold.Header.Get("X-Config-Hash"), hot.Header.Get("X-Config-Hash"); ch == "" || ch != hh {
		t.Errorf("config hash mismatch: cold %q hot %q", ch, hh)
	}

	// A defaults-spelled-out spelling of the same job hits the same entry.
	alias, aliasBody := post(t, ts, `{"params":{"iters":1,"sizes":[64]},"format":"csv","scenario":"micro"}`)
	if got := alias.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("aliased config X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(coldBody, aliasBody) {
		t.Error("aliased config returned different bytes")
	}
}

func TestRunFormats(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	resp, body := post(t, ts, `{"scenario":"micro","format":"json","params":{"sizes":[64],"iters":1}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json run: status %d, body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("json Content-Type = %q", ct)
	}
	var doc struct {
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("json artifact does not parse: %v", err)
	}
	if doc.Title == "" || len(doc.Header) == 0 || len(doc.Rows) == 0 {
		t.Errorf("json artifact incomplete: %+v", doc)
	}

	resp, body = post(t, ts, `{"scenario":"micro","format":"text","params":{"sizes":[64],"iters":1}}`)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("==")) {
		t.Errorf("text run: status %d, body %s", resp.StatusCode, body)
	}
}

func TestRunBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, tc := range []struct{ name, body string }{
		{"unknown scenario", `{"scenario":"nope"}`},
		{"unknown field", `{"scenario":"micro","bogus":1}`},
		{"unknown format", `{"scenario":"micro","format":"xml"}`},
		{"invalid params", `{"scenario":"amo","params":{"procs":[100000]}}`},
		{"not json", `sizes=64`},
	} {
		resp, _ := post(t, ts, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// A full queue sheds load with 429 + Retry-After instead of stacking
// latency.
func TestQueueFullRejects(t *testing.T) {
	s, ts := newTestServer(t, Options{QueueDepth: 2})

	// Occupy every queue slot so the next admission check fails.
	for i := 0; i < 2; i++ {
		s.queue <- struct{}{}
	}
	defer func() {
		<-s.queue
		<-s.queue
	}()

	resp, body := post(t, ts, fastJob)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if rejects := atomic.LoadUint64(&s.rejects); rejects != 1 {
		t.Errorf("admission.rejects = %d, want 1", rejects)
	}
}

func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Options{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %v %v", resp, err)
	}
	resp.Body.Close()

	s.Drain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: want 503, got %v %v", resp, err)
	}
	resp.Body.Close()

	runResp, _ := post(t, ts, fastJob)
	if runResp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST /run during drain: status %d, want 503", runResp.StatusCode)
	}
	if runResp.Header.Get("Retry-After") == "" {
		t.Error("drain rejection without Retry-After")
	}
}

func TestScenariosEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []struct {
		Name string `json:"name"`
		Doc  string `json:"doc"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := map[string]bool{"micro": true, "amo": true, "fig9": true, "chaos": true, "scf": true, "tableii": true}
	for _, e := range list {
		delete(want, e.Name)
		if e.Doc == "" {
			t.Errorf("scenario %s has no doc", e.Name)
		}
	}
	if len(want) != 0 {
		t.Errorf("scenarios missing from listing: %v", want)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{StoreDir: t.TempDir()})
	scrape := func() (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.String()
	}

	// A count is an attached field: its series is there, at 0, before
	// anything has been counted.
	if _, text := scrape(); !strings.Contains(text, "\nserve_admission_rejects 0\n") {
		t.Errorf("/metrics before any request lacks serve_admission_rejects 0\n%s", text)
	}

	// One miss, one hit, so the counters are nonzero.
	post(t, ts, fastJob)
	post(t, ts, fastJob)

	resp, text := scrape()
	for _, want := range []string{
		"serve_cache_hits 1",
		"serve_cache_misses 1",
		`serve_requests{scenario="micro"} 2`,
		"serve_queue_depth ",
		`serve_run_latency_ns_bucket{scenario="micro",le="+Inf"} 1`,
		"serve_cache_entries 1",
		// The parse memo: the first post parsed, the second did not.
		"serve_parse_memo_hits 1",
		"serve_parse_memo_misses 1",
		"serve_parse_memo_entries 1",
		"serve_parse_memo_bytes " + strconv.Itoa(len(fastJob)+64+len("micro")+len("csv")+memoEntryOverhead),
		"serve_parse_memo_evictions 0",
		// The five counts that are their owners' fields, no longer gauges
		// copied from them at every scrape.
		"# TYPE serve_cache_evictions counter",
		"# TYPE serve_parse_memo_hits counter",
		"# TYPE serve_parse_memo_misses counter",
		"# TYPE serve_parse_memo_evictions counter",
		"# TYPE serve_store_quarantined counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n%s", want, text)
		}
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
}

// A body past the 1 MiB limit is a 413 that says what the limit is; one
// exactly at it is read, parsed and answered (and, being dearer than one
// memo entry's share, not memoised).
func TestOversizeBodyIs413(t *testing.T) {
	s := New(Options{Workers: 1, SweepWorkers: 1})
	defer s.Close()
	h := s.Handler()
	pad := func(total int) []byte { return padded(total - len(fastJob)) }

	for _, path := range []string{"/v1/run", "/v1/runs", "/v1/compose"} {
		rec := serveBody(h, path, pad(maxBodyBytes+1))
		const want = `{"error":"request body too large","field":"body","hint":"at most 1 MiB"}` + "\n"
		if rec.Code != http.StatusRequestEntityTooLarge || rec.Body.String() != want {
			t.Errorf("POST %s, 1 MiB + 1: %d %s, want 413 %s", path, rec.Code, rec.Body, want)
		}
	}
	if rec := serveBody(h, "/v1/run", pad(maxBodyBytes)); rec.Code != http.StatusOK {
		t.Errorf("POST /v1/run, exactly 1 MiB: %d %s", rec.Code, rec.Body)
	}
	if st := memoFields(s.memo); st.entries != 0 || st.misses != 1 {
		t.Errorf("memo after one readable 1 MiB body and three over-size ones: %+v, want one parse, nothing kept", st)
	}
}

// pingCompose is a body of the repo benchmark's serve workloads (the
// short spelling of a ping key), pingCompose2 a second key.
const (
	pingCompose  = `{"compose":{"phases":[{"pattern":"ping","params":{"iters":8},"sizes":{"kind":"fixed","bytes":1024}}]}}`
	pingCompose2 = `{"compose":{"phases":[{"pattern":"ping","params":{"iters":8},"sizes":{"kind":"fixed","bytes":2048}}]}}`
)

// discardWriter is a ResponseWriter that keeps the status and the body's
// length and drops the rest, so a handler's own allocations are all
// AllocsPerRun sees.
type discardWriter struct {
	h         http.Header
	status, n int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { d.n = len(b); return len(b), nil }
func (d *discardWriter) WriteHeader(code int)        { d.status = code }

// replayBody is a request body that can be rewound between runs.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// What answering a re-posted body from this replica's own tiers costs the
// heap, handler only (request construction and the response writer are
// outside): the parse memo supplies the identity, so no envelope, spec,
// canonical body or key is built. The second case alternates two keys
// over an LRU that holds one, so every answer is a verified disk load
// promoted into the LRU — hashed by the load and not again by the
// promotion. Pinned at the measured counts, 4 and 24 (50 and 80 before
// the memo, 32 before an entry was one file): the first with the house
// 10 %, the second with 5 %, a headroom of one.
func TestHitPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, tc := range []struct {
		name   string
		bodies [][]byte
		src    string
		budget float64
	}{
		{"LRU hit", [][]byte{[]byte(pingCompose)}, "hit", 4.4},
		{"disk load", [][]byte{[]byte(pingCompose), []byte(pingCompose2)}, "disk", 25.2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Options{Workers: 1, SweepWorkers: 1, StoreDir: t.TempDir()})
			defer s.Close()
			h := s.Handler()
			body := &replayBody{}
			req := httptest.NewRequest(http.MethodPost, "/v1/compose", body)
			w := &discardWriter{h: make(http.Header)}
			largest := 0
			serve := func() {
				for _, b := range tc.bodies {
					body.Reset(b)
					clear(w.h)
					w.status = http.StatusOK
					h.ServeHTTP(w, req)
					if src := w.h.Get("X-Cache"); w.status != http.StatusOK || (largest > 0 && src != tc.src) {
						t.Fatalf("status %d X-Cache %q, want 200 from %q", w.status, src, tc.src)
					}
				}
			}
			serve() // cold: executes and fills both tiers
			largest = w.n
			if len(tc.bodies) > 1 {
				s.cache = NewCache(int64(largest)) // one artifact fits, never two
				serve()
			}
			got := testing.AllocsPerRun(200, serve) / float64(len(tc.bodies))
			t.Logf("%s: %.1f allocations per request (budget %.1f)", tc.name, got, tc.budget)
			if got > tc.budget {
				t.Errorf("%s: %.1f allocations per request, budget %.1f", tc.name, got, tc.budget)
			}
		})
	}
}

// What a synchronous cold write costs the heap, handler and execution
// together: a ping job no tier holds is parsed, executed, rendered, put
// in the LRU and written through to the disk store, and the artifact is
// answered. Every run posts a key of its own, so every run is cold.
// Pinned at the measured count plus 5 %.
func TestColdWriteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const runs, budget = 20, 278.2
	bodies := make([][]byte, runs+2) // AllocsPerRun runs once more to warm up
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf(`{"compose":{"phases":[{"pattern":"ping","params":{"iters":8},"sizes":{"kind":"fixed","bytes":%d}}]}}`, 4096+8*i))
	}
	s := New(Options{Workers: 1, SweepWorkers: 1, StoreDir: t.TempDir()})
	defer s.Close()
	h := s.Handler()
	body := &replayBody{}
	req := httptest.NewRequest(http.MethodPost, "/v1/compose", body)
	w := &discardWriter{h: make(http.Header)}
	next := 0
	serve := func() {
		body.Reset(bodies[next])
		next++
		clear(w.h)
		w.status = http.StatusOK
		h.ServeHTTP(w, req)
		if src := w.h.Get("X-Cache"); w.status != http.StatusOK || src != "miss" {
			t.Fatalf("status %d X-Cache %q, want 200 from a cold execution", w.status, src)
		}
	}
	serve() // fills the engine's pools, and outlasts the empty store's startup scan
	got := testing.AllocsPerRun(runs, serve)
	t.Logf("cold write: %.1f allocations per request (budget %.1f)", got, budget)
	if got > budget {
		t.Errorf("cold write: %.1f allocations per request, budget %.1f", got, budget)
	}
}
