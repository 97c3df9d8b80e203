package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

type sseEvent struct {
	id, name, data string
}

// readSSE consumes an entire SSE stream (until the server closes it) and
// returns both the raw bytes — the unit byte-identity is asserted on —
// and the parsed events.
func readSSE(t *testing.T, url string) (string, []sseEvent) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read stream: %v", err)
	}
	return buf.String(), parseSSE(t, buf.String())
}

func parseSSE(t *testing.T, raw string) []sseEvent {
	t.Helper()
	var evs []sseEvent
	for _, frame := range strings.Split(raw, "\n\n") {
		if strings.TrimSpace(frame) == "" {
			continue
		}
		var ev sseEvent
		for _, line := range strings.Split(frame, "\n") {
			switch {
			case strings.HasPrefix(line, "id: "):
				ev.id = line[len("id: "):]
			case strings.HasPrefix(line, "event: "):
				ev.name = line[len("event: "):]
			case strings.HasPrefix(line, "data: "):
				ev.data = line[len("data: "):]
			}
		}
		evs = append(evs, ev)
	}
	return evs
}

// submitAsync posts a job to POST /v1/runs and returns the decoded run info.
func submitAsync(t *testing.T, ts *httptest.Server, job string) RunInfo {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(job))
	if err != nil {
		t.Fatalf("POST /v1/runs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("POST /v1/runs: status %d, body %s", resp.StatusCode, buf.String())
	}
	var info RunInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	if info.ID == "" {
		t.Fatal("submit response has no run id")
	}
	return info
}

// resultBytes reassembles the artifact from a stream's result chunks.
func resultBytes(t *testing.T, evs []sseEvent) []byte {
	t.Helper()
	var out []byte
	next := 0
	for _, ev := range evs {
		if ev.name != "result" {
			continue
		}
		var chunk struct {
			I    int    `json:"i"`
			Data string `json:"data"`
		}
		if err := json.Unmarshal([]byte(ev.data), &chunk); err != nil {
			t.Fatalf("bad result chunk %q: %v", ev.data, err)
		}
		if chunk.I != next {
			t.Fatalf("result chunk %d arrived at position %d", chunk.I, next)
		}
		next++
		raw, err := base64.StdEncoding.DecodeString(chunk.Data)
		if err != nil {
			t.Fatalf("result chunk %d not base64: %v", chunk.I, err)
		}
		out = append(out, raw...)
	}
	return out
}

// liveJobs is one fast parameterization per registered scenario — the
// acceptance sweep runs each through the live plane.
var liveJobs = map[string]string{
	"micro":   `{"scenario":"micro","params":{"sizes":[64,256],"iters":1}}`,
	"amo":     `{"scenario":"amo","params":{"procs":[2,4],"ops_each":2}}`,
	"fig9":    `{"scenario":"fig9","params":{"procs":[2],"ops_each":2}}`,
	"chaos":   `{"scenario":"chaos","params":{"procs":[8],"ops_each":2}}`,
	"scf":     `{"scenario":"scf","params":{"procs":[16],"per_node":8,"iters":1}}`,
	"tableii": `{"scenario":"tableii"}`,
}

// streamScenario cold-submits job on a fresh server, attaches one SSE
// client immediately (live tail) and one after completion (pure replay),
// asserts the two streams are byte-identical, and returns the stream
// plus the reassembled artifact.
func streamScenario(t *testing.T, sweepWorkers int, job string) (string, []byte) {
	t.Helper()
	_, ts := newTestServer(t, Options{SweepWorkers: sweepWorkers})
	info := submitAsync(t, ts, job)
	eventsURL := ts.URL + "/v1/runs/" + info.ID + "/events"

	live, liveEvs := readSSE(t, eventsURL) // attaches mid-run, follows to done
	replay, _ := readSSE(t, eventsURL)     // attaches after done, replays the log
	if live != replay {
		t.Fatalf("late-attach replay differs from live stream:\nlive:\n%s\nreplay:\n%s", live, replay)
	}

	artifact := resultBytes(t, liveEvs)
	last := liveEvs[len(liveEvs)-1]
	if last.name != "done" {
		t.Fatalf("stream did not end with done: %+v", last)
	}
	var done struct {
		Status string `json:"status"`
		Bytes  int    `json:"bytes"`
		SHA256 string `json:"sha256"`
	}
	if err := json.Unmarshal([]byte(last.data), &done); err != nil {
		t.Fatal(err)
	}
	if done.Status != "done" || done.Bytes != len(artifact) {
		t.Fatalf("done event %s does not match %d reassembled bytes", last.data, len(artifact))
	}
	sum := sha256.Sum256(artifact)
	if done.SHA256 != hex.EncodeToString(sum[:]) {
		t.Fatal("done sha256 does not match reassembled artifact")
	}

	// The synchronous endpoint must serve the same bytes (cache hit: the
	// async run already filled the cache).
	resp, body := post(t, ts, job)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync POST /run after async run: status %d, body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("sync POST /run after async run: X-Cache = %q, want hit", resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(body, artifact) {
		t.Fatalf("streamed artifact differs from synchronous response:\nstream: %q\nsync:   %q", artifact, body)
	}
	return live, artifact
}

// TestLiveStreamEveryScenario is the acceptance gate: for every scenario
// in the registry, the concatenated streamed result chunks equal the
// final rendered artifact byte-for-byte at sweep parallelism 1 and 4, a
// late-attaching client reconstructs the same bytes as a from-the-
// beginning client, and the entire event stream — progress, metrics
// snapshots, trace events included — is byte-identical across worker
// counts.
func TestLiveStreamEveryScenario(t *testing.T) {
	for name, job := range liveJobs {
		t.Run(name, func(t *testing.T) {
			stream1, art1 := streamScenario(t, 1, job)
			stream4, art4 := streamScenario(t, 4, job)
			if !bytes.Equal(art1, art4) {
				t.Fatal("artifact differs between sweep worker counts")
			}
			if stream1 != stream4 {
				t.Fatal("event stream differs between sweep worker counts 1 and 4")
			}
			if len(art1) == 0 {
				t.Fatal("empty artifact")
			}
		})
	}
}

// TestLiveStreamSchema pins the event-log shape on one scenario: hello
// first, a queued→running state pair, one point + one metrics event per
// sweep point (in index order), result chunks, done last.
func TestLiveStreamSchema(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	info := submitAsync(t, ts, `{"scenario":"amo","params":{"procs":[2,4],"ops_each":2}}`)
	_, evs := readSSE(t, ts.URL+"/v1/runs/"+info.ID+"/events")

	if evs[0].name != "hello" || evs[0].id != "0" {
		t.Fatalf("first event %+v, want hello id 0", evs[0])
	}
	var hello struct {
		ID       string `json:"id"`
		Key      string `json:"key"`
		Scenario string `json:"scenario"`
		Format   string `json:"format"`
	}
	if err := json.Unmarshal([]byte(evs[0].data), &hello); err != nil {
		t.Fatal(err)
	}
	if hello.ID != info.ID || hello.Scenario != "amo" || hello.Format != "csv" || !strings.HasPrefix(hello.Key, hello.ID) {
		t.Fatalf("hello = %+v", hello)
	}

	var states []string
	var points []int
	metrics, traces := 0, 0
	for _, ev := range evs {
		switch ev.name {
		case "state":
			var st struct {
				State string `json:"state"`
			}
			json.Unmarshal([]byte(ev.data), &st)
			states = append(states, st.State)
		case "point":
			var p struct{ I, N int }
			json.Unmarshal([]byte(ev.data), &p)
			if p.N != 4 { // 2 variants x 2 proc counts
				t.Fatalf("point event n=%d, want 4", p.N)
			}
			points = append(points, p.I)
		case "metrics":
			var m map[string]json.RawMessage
			if err := json.Unmarshal([]byte(ev.data), &m); err != nil {
				t.Fatalf("metrics event not valid JSON: %v", err)
			}
			metrics++
		case "trace":
			var arr []map[string]any
			if err := json.Unmarshal([]byte(ev.data), &arr); err != nil {
				t.Fatalf("trace event not a JSON array: %v", err)
			}
			traces++
		}
	}
	if want := []string{"queued", "running", "done"}; fmt.Sprint(states) != fmt.Sprint(want) {
		t.Fatalf("state sequence %v, want %v", states, want)
	}
	if fmt.Sprint(points) != "[0 1 2 3]" {
		t.Fatalf("points delivered out of order: %v", points)
	}
	if metrics != len(points) {
		t.Fatalf("%d metrics snapshots for %d points", metrics, len(points))
	}
	if traces == 0 {
		t.Fatal("no trace events streamed")
	}
}

// TestRunsListingAndGet covers the registry endpoints: a finished run is
// listed, introspectable, and the cached-submit path reports done
// immediately.
func TestRunsListingAndGet(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	info := submitAsync(t, ts, fastJob)
	readSSE(t, ts.URL+"/v1/runs/"+info.ID+"/events") // wait for completion

	resp, err := http.Get(ts.URL + "/v1/runs/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got RunInfo
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if got.State != RunDone || got.Scenario != "micro" || got.Bytes == 0 || got.SHA256 == "" {
		t.Fatalf("run info after completion: %+v", got)
	}
	if got.Points != got.Total || got.Points == 0 {
		t.Fatalf("progress counters: %d/%d", got.Points, got.Total)
	}

	resp, err = http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	var list []RunInfo
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != info.ID {
		t.Fatalf("/v1/runs listing: %+v", list)
	}

	// Re-submitting the same config is a cache hit: 200, state done,
	// no new execution.
	resp2, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(fastJob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached submit: status %d, want 200", resp2.StatusCode)
	}
	var cached RunInfo
	json.NewDecoder(resp2.Body).Decode(&cached)
	if cached.ID != info.ID || cached.State != RunDone {
		t.Fatalf("cached submit info: %+v", cached)
	}

	if resp3, err := http.Get(ts.URL + "/v1/runs/no-such-run"); err != nil || resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run: %v %v", resp3.StatusCode, err)
	} else {
		resp3.Body.Close()
	}
}

// TestRunEvictedButCached: with a one-record registry, an older finished
// run's record is evicted by the next job — but its artifact is still
// cached, so GET /runs/{id} answers with a synthesized record and the
// event stream resurrects a replay whose bytes match the artifact.
func TestRunEvictedButCached(t *testing.T) { testRunEvicted(t, Options{runHistory: 1}) }

// TestRunEvictedButOnDisk: the same, with an LRU too small to hold either
// artifact — the disk store is the tier that still has the evicted run's.
func TestRunEvictedButOnDisk(t *testing.T) {
	testRunEvicted(t, Options{runHistory: 1, CacheBytes: 64, StoreDir: t.TempDir()})
}

func testRunEvicted(t *testing.T, opts Options) {
	_, ts := newTestServer(t, opts)
	first := submitAsync(t, ts, fastJob)
	_, firstEvs := readSSE(t, ts.URL+"/v1/runs/"+first.ID+"/events")
	firstArtifact := resultBytes(t, firstEvs)

	second := submitAsync(t, ts, `{"scenario":"micro","params":{"sizes":[128],"iters":1}}`)
	readSSE(t, ts.URL+"/v1/runs/"+second.ID+"/events")

	resp, err := http.Get(ts.URL + "/v1/runs/" + first.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got RunInfo
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if !got.Evicted || got.State != RunDone || got.Bytes != len(firstArtifact) {
		t.Fatalf("evicted run info: %+v", got)
	}

	_, evs := readSSE(t, ts.URL+"/v1/runs/"+first.ID+"/events")
	if !bytes.Equal(resultBytes(t, evs), firstArtifact) {
		t.Fatal("resurrected replay does not reproduce the artifact")
	}
}

// TestRunKeysBounded: the id → config memory that keeps an evicted run
// addressable is itself bounded, at runKeysPerRecord ids per registry
// record, oldest first. Two admissions past the bound: the two oldest ids
// are forgotten (404, though their artifacts are still in the LRU), the
// oldest id inside the bound still resurrects from it.
func TestRunKeysBounded(t *testing.T) {
	s, ts := newTestServer(t, Options{runHistory: 1})
	const over = 2
	var ids []string
	for i := 0; i < runKeysPerRecord+over; i++ {
		info := submitAsync(t, ts, fmt.Sprintf(`{"scenario":"micro","params":{"sizes":[%d],"iters":1}}`, 8*(i+1)))
		readSSE(t, ts.URL+"/v1/runs/"+info.ID+"/events")
		ids = append(ids, info.ID)
	}
	s.runs.mu.Lock()
	kept, refs := s.runs.keys.size()
	s.runs.mu.Unlock()
	if kept != runKeysPerRecord || refs != runKeysPerRecord {
		t.Errorf("registry remembers %d ids at a cost of %d, want %d of each", kept, refs, runKeysPerRecord)
	}
	for i, id := range ids[:over+1] {
		resp, err := http.Get(ts.URL + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var got RunInfo
		json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if i < over {
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("id %d, past the bound: status %d, want 404", i, resp.StatusCode)
			}
			continue
		}
		if resp.StatusCode != http.StatusOK || !got.Evicted || got.State != RunDone {
			t.Errorf("id %d, the oldest inside the bound: status %d, %+v", i, resp.StatusCode, got)
		}
		if _, evs := readSSE(t, ts.URL+"/v1/runs/"+id+"/events"); len(resultBytes(t, evs)) != got.Bytes {
			t.Errorf("id %d: resurrected replay does not carry the %d-byte artifact", i, got.Bytes)
		}
	}
}

// TestDrainMidStream: an SSE client attached to a still-queued run gets
// a terminal drain event and a clean close when the server drains.
func TestDrainMidStream(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	// Starve the job of an execution slot so the stream stays open.
	s.slots <- struct{}{}
	defer func() { <-s.slots }()

	info := submitAsync(t, ts, fastJob)
	done := make(chan string, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/runs/" + info.ID + "/events")
		if err != nil {
			done <- ""
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		done <- buf.String()
	}()

	// Wait until the subscriber is attached, then drain.
	waitFor(t, func() bool { return s.runs.get(info.ID).Watchers() == 1 })
	s.Drain()

	select {
	case raw := <-done:
		evs := parseSSE(t, raw)
		if len(evs) == 0 {
			t.Fatal("empty stream")
		}
		if last := evs[len(evs)-1]; last.name != "drain" {
			t.Fatalf("stream ended with %+v, want drain event\n%s", last, raw)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not close after drain")
	}
}

// TestDisconnectDecrementsWatchers: a client dropping mid-stream releases
// its watcher slot.
func TestDisconnectDecrementsWatchers(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	s.slots <- struct{}{} // keep the run queued so the stream stays open

	info := submitAsync(t, ts, fastJob)
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/runs/"+info.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	run := s.runs.get(info.ID)
	waitFor(t, func() bool { return run.Watchers() == 1 })
	cancel()
	waitFor(t, func() bool { return run.Watchers() == 0 })
	<-s.slots // let the job finish so Cleanup is quick
	readSSE(t, ts.URL+"/v1/runs/"+info.ID+"/events")
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestHeaderHygiene: Allow on method mismatches, Cache-Control: no-store
// and correct Content-Type on every observability surface.
func TestHeaderHygiene(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	post(t, ts, fastJob) // warm one artifact

	t.Run("allow on method mismatch", func(t *testing.T) {
		for path, wantAllow := range map[string]string{
			"/v1/run":  "POST",
			"/metrics": "GET, HEAD",
			"/v1/runs": "GET, HEAD, POST",
		} {
			req, _ := http.NewRequest("DELETE", ts.URL+path, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("DELETE %s: status %d, want 405", path, resp.StatusCode)
			}
			if got := resp.Header.Get("Allow"); got != wantAllow {
				t.Errorf("DELETE %s: Allow = %q, want %q", path, got, wantAllow)
			}
		}
	})

	t.Run("no-store and content types", func(t *testing.T) {
		resp, _ := post(t, ts, fastJob)
		if resp.Header.Get("Cache-Control") != "no-store" {
			t.Error("POST /v1/run response without Cache-Control: no-store")
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
			t.Errorf("artifact Content-Type = %q", ct)
		}
		for _, path := range []string{"/metrics", "/v1/runs"} {
			r, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			if r.Header.Get("Cache-Control") != "no-store" {
				t.Errorf("GET %s without Cache-Control: no-store", path)
			}
		}
	})
}

// TestAccessLog: with a sink installed, each request emits one structured
// line carrying where the job's identity came from (the full parse, then
// the parse memo), scenario and cache disposition.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	logw := &syncWriter{w: &buf}
	_, ts := newTestServer(t, Options{AccessLog: logw})
	post(t, ts, fastJob)
	post(t, ts, fastJob)

	lines := strings.Split(strings.TrimSpace(logw.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d log lines, want 2:\n%s", len(lines), logw.String())
	}
	for i, want := range []string{"parse=full scenario=micro cache=miss", "parse=memo scenario=micro cache=hit"} {
		for _, frag := range []string{"method=POST", "path=/v1/run", "status=200", want, "latency="} {
			if !strings.Contains(lines[i], frag) {
				t.Errorf("log line %d missing %q: %s", i, frag, lines[i])
			}
		}
	}
}

// TestNoAccessLogConcurrentRequests: with no sink, handlers annotate a nil
// record; concurrent requests must share no memory through it (run under
// -race — they used to write one package-level discard record).
func TestNoAccessLogConcurrentRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(fastJob))
				if err != nil {
					t.Errorf("POST /v1/run: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("POST /v1/run: status %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
}

// syncWriter makes a bytes.Buffer safe to read while the server writes.
type syncWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (sw *syncWriter) Write(b []byte) (int, error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.w.Write(b)
}

func (sw *syncWriter) String() string {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.w.String()
}

// TestTraceBudgetDropsAreExplicit: a run's event log admits trace lines up
// to its budget and says how many it withheld — in the point that crosses
// the budget, beside the lines that still fit, and in every point after.
func TestTraceBudgetDropsAreExplicit(t *testing.T) {
	child := obs.New()
	child.Span(obs.TrackRank, "rank0", "get", 10, 30)
	child.Span(obs.TrackRank, "rank0", "put", 40, 60)
	child.Span(obs.TrackRank, "rank0", "acc", 70, 90)
	all := obs.NewTraceStreamer().Emit(child) // process_name, thread_name, 3 spans

	run := newRun("id", "key", "micro", "csv")
	em := newRunEmitter(run, obs.New(), 3)
	em.PointDone(0, 2, child)
	em.PointDone(1, 2, child)

	var got []string
	for _, ev := range run.log {
		if ev.Name == "trace" || ev.Name == "dropped" {
			got = append(got, ev.Name+" "+ev.Data)
		}
	}
	want := []string{
		"trace [" + strings.Join(all[:3], ",") + "]",
		`dropped {"events":2}`,
		`dropped {"events":3}`, // the track is named by now: 3 spans, no metadata
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("event log past a trace budget of 3:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestExpiredJobIs504: a job stopped by its deadline is a failed run whose
// done event carries 504; one stopped because everybody left is cancelled,
// 503 with a Retry-After. Neither result carries an artifact to cache.
func TestExpiredJobIs504(t *testing.T) {
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	abandoned, leave := context.WithCancel(context.Background())
	leave()
	for _, tc := range []struct {
		ctx        context.Context
		state      RunState
		done       string
		retryAfter int
	}{
		{expired, RunFailed, `{"status":"failed","code":504,"error":"job timed out"}`, 0},
		{abandoned, RunCancelled, `{"status":"cancelled","code":503,"error":"job cancelled"}`, retryAfterSeconds},
	} {
		res := cancelResult(tc.ctx)
		run := newRun("id", "key", "micro", "csv")
		st := run.finish(res)
		last := run.log[len(run.log)-1]
		if st != tc.state || last.Name != "done" || last.Data != tc.done ||
			res.retryAfter != tc.retryAfter || res.body != nil {
			t.Errorf("%v: state %s, last event %s %s, result %+v; want %s, done %s",
				tc.ctx.Err(), st, last.Name, last.Data, res, tc.state, tc.done)
		}
	}
}
