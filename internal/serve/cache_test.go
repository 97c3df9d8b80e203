package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Two spellings of the same experiment — different JSON field order,
// defaults omitted vs spelled out — must hash to the same key, and a
// genuinely different experiment must not.
func TestHashCanonicalization(t *testing.T) {
	parse := func(s string) job {
		t.Helper()
		j, err := parseJob(strings.NewReader(s), new(JobConfig))
		if err != nil {
			t.Fatalf("parse %s: %v", s, err)
		}
		return j
	}

	bare := parse(`{"scenario":"micro"}`)
	spelled := parse(`{"params":{"iters":5,"sizes":[16,256,4096,65536]},"format":"csv","scenario":"micro"}`)
	if bare.key != spelled.key {
		t.Errorf("defaults-omitted and defaults-spelled-out configs hash differently:\n %s\n %s",
			bare.key, spelled.key)
	}

	reordered := parse(`{"format":"csv","scenario":"micro","params":{"sizes":[16,256,4096,65536],"iters":5}}`)
	if bare.key != reordered.key {
		t.Errorf("field order changed the hash")
	}

	different := parse(`{"scenario":"micro","params":{"iters":6}}`)
	if bare.key == different.key {
		t.Errorf("different iters collided onto one hash")
	}
	otherFormat := parse(`{"scenario":"micro","format":"json"}`)
	if bare.key == otherFormat.key {
		t.Errorf("different formats collided onto one hash")
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := parseJob(strings.NewReader(`{"scenario":"micro","scenaario_typo":1}`), new(JobConfig))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(100)
	body := func(n int) []byte { return []byte(strings.Repeat("x", n)) }

	c.Put("a", body(40), "micro", "csv")
	c.Put("b", body(40), "micro", "csv")
	if entries, used := c.size(); entries != 2 || used != 80 {
		t.Fatalf("after two puts: entries=%d used=%d", entries, used)
	}

	// Touch a so b is the LRU victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	c.Put("c", body(40), "micro", "csv") // 120 > 100 → evict b
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction despite being LRU")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a (recently used) was evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c (just inserted) was evicted")
	}
	entries, used := c.size()
	if evictions := atomic.LoadUint64(&c.evictions); entries != 2 || used != 80 || evictions != 1 {
		t.Errorf("after eviction: entries=%d used=%d evictions=%d, want 2/80/1", entries, used, evictions)
	}

	// Replacing a key adjusts the budget rather than double-counting.
	c.Put("a", body(60), "micro", "csv") // used 40+60 = 100, fits exactly
	if entries, used := c.size(); entries != 2 || used != 100 {
		t.Errorf("after replace: entries=%d used=%d, want 2/100", entries, used)
	}

	// A body over the whole budget is refused without disturbing anything.
	c.Put("huge", body(101), "micro", "csv")
	if _, ok := c.Get("huge"); ok {
		t.Error("over-budget body was stored")
	}
	if entries, _ := c.size(); entries != 2 {
		t.Errorf("over-budget put disturbed the cache: entries=%d", entries)
	}
}

// N concurrent submissions of one key must collapse onto a single
// execution, with every caller receiving the same result.
func TestFlightCollapse(t *testing.T) {
	f := newFlightGroup()
	var runs atomic.Int64
	release := make(chan struct{})
	fn := func(ctx context.Context) *jobResult {
		runs.Add(1)
		<-release
		return &jobResult{status: 200, body: []byte("artifact")}
	}

	const n = 8
	results := make([]*jobResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := f.do(context.Background(), context.Background(), "k", fn)
			if err != nil {
				t.Errorf("do %d: %v", i, err)
			}
			results[i] = res
		}(i)
	}

	// Wait until every caller has registered as a waiter, then let the
	// single leader finish.
	deadline := time.Now().Add(5 * time.Second)
	for {
		f.mu.Lock()
		w := 0
		if call := f.inflight["k"]; call != nil {
			w = call.waiters
		}
		f.mu.Unlock()
		if w == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d waiters registered", w, n)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Errorf("%d identical submissions ran %d times, want 1", n, got)
	}
	for i, r := range results {
		if r == nil || string(r.body) != "artifact" {
			t.Errorf("caller %d got %+v", i, r)
		}
	}
}

// A finished run leaves the flight map, so the next request re-executes
// (failed runs are retried, never memoized — only the cache memoizes,
// and only successes go there).
func TestFlightNotMemoized(t *testing.T) {
	f := newFlightGroup()
	var runs atomic.Int64
	fn := func(ctx context.Context) *jobResult {
		runs.Add(1)
		return &jobResult{status: 503, errMsg: "transient"}
	}
	for i := 0; i < 2; i++ {
		if _, _, err := f.do(context.Background(), context.Background(), "k", fn); err != nil {
			t.Fatalf("do: %v", err)
		}
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("sequential submissions ran %d times, want 2", got)
	}
}

// When the last interested caller abandons, the run's context is
// cancelled so the job stops consuming workers.
func TestFlightAbandonCancelsRun(t *testing.T) {
	f := newFlightGroup()
	runCancelled := make(chan struct{})
	fn := func(ctx context.Context) *jobResult {
		<-ctx.Done()
		close(runCancelled)
		return &jobResult{status: 503, errMsg: "cancelled"}
	}

	reqCtx, abandon := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := f.do(reqCtx, context.Background(), "k", fn)
		errc <- err
	}()

	// Wait for the leader to be in flight, then walk away.
	deadline := time.Now().Add(5 * time.Second)
	for {
		f.mu.Lock()
		_, ok := f.inflight["k"]
		f.mu.Unlock()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	abandon()

	if err := <-errc; err == nil {
		t.Error("abandoned caller got nil error")
	}
	select {
	case <-runCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("run context was never cancelled after the last waiter left")
	}
}

// TestFlightStartSurvivesAbandonedWaiters: an async-submitted run holds
// a permanent waiter slot, so synchronous waiters joining and walking
// away must not cancel it.
func TestFlightStartSurvivesAbandonedWaiters(t *testing.T) {
	f := newFlightGroup()
	release := make(chan struct{})
	var sawCancel atomic.Bool
	fn := func(ctx context.Context) *jobResult {
		<-release
		if ctx.Err() != nil {
			sawCancel.Store(true)
		}
		return &jobResult{status: 200, body: []byte("ok")}
	}

	if !f.start(context.Background(), "k", fn) {
		t.Fatal("first start did not launch")
	}
	if f.start(context.Background(), "k", fn) {
		t.Fatal("second start for the same key launched a duplicate run")
	}

	// A sync waiter joins the in-flight run and abandons it — the run's
	// permanent async slot must keep the context alive.
	reqCtx, abandon := context.WithCancel(context.Background())
	abandon()
	if _, shared, err := f.do(reqCtx, context.Background(), "k", fn); !shared || err == nil {
		t.Fatalf("abandoning waiter: shared=%v err=%v, want shared non-nil error", shared, err)
	}

	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		f.mu.Lock()
		_, inflight := f.inflight["k"]
		f.mu.Unlock()
		if !inflight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("async run never completed")
		}
		time.Sleep(time.Millisecond)
	}
	if sawCancel.Load() {
		t.Fatal("async run was cancelled by an abandoned sync waiter")
	}
}

func TestNormalizeErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  JobConfig
	}{
		{"unknown scenario", JobConfig{Scenario: "nope"}},
		{"traffic pattern by name", JobConfig{Scenario: "ping"}},
		{"unknown format", JobConfig{Scenario: "micro", Format: "xml"}},
		{"out-of-range params", JobConfig{Scenario: "amo", Params: wireParams{"procs": []int{100000}}}},
		{"undeclared param", JobConfig{Scenario: "micro", Params: wireParams{"procs": []int{4}}}},
	} {
		if _, err := newJob(&tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// serveBody posts body to path on h, in process.
func serveBody(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// padded is fastJob re-spelled with n trailing spaces: one key, as many
// distinct bodies as there are values of n.
func padded(n int) []byte {
	return append([]byte(fastJob), bytes.Repeat([]byte{' '}, n)...)
}

// peek is get for tests: no recency update, no hit or miss counted.
func (m *parseMemo) peek(kind envelopeKind, raw []byte) *identity {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.items[memoKey{kind, string(raw)}]; ok {
		return el.Value.(*lruEntry[memoKey, *identity]).val
	}
	return nil
}

// size returns l's entry count and charged total.
func (l *lru[K, V]) size() (entries int, used int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.items), l.used
}

// memoCounts is what the memo's fields hold at one moment: its three
// counts and the two gauges a scrape reads.
type memoCounts struct {
	hits, misses, evictions uint64
	entries                 int
	bytes                   int64
}

func memoFields(m *parseMemo) memoCounts {
	entries, bytes := m.size()
	return memoCounts{atomic.LoadUint64(&m.hits), atomic.LoadUint64(&m.misses),
		atomic.LoadUint64(&m.evictions), entries, bytes}
}

// The parse memo at its bound, at the budget the daemon runs with:
// distinct spellings of one job are posted until the budget is passed
// several times over.
func TestParseMemoBound(t *testing.T) {
	s := New(Options{Workers: 1, SweepWorkers: 1})
	defer s.Close()
	h := s.Handler()

	first := serveBody(h, "/v1/run", padded(0)) // cold: the only execution in this test
	if first.Code != http.StatusOK {
		t.Fatalf("cold post: %d %s", first.Code, first.Body)
	}
	key, artifact := first.Header().Get("X-Config-Hash"), first.Body.Bytes()
	same := func(what string, rec *httptest.ResponseRecorder) {
		t.Helper()
		if rec.Code != http.StatusOK || rec.Header().Get("X-Config-Hash") != key ||
			rec.Header().Get("X-Cache") != "hit" || !bytes.Equal(rec.Body.Bytes(), artifact) {
			t.Fatalf("%s: status %d hash %s X-Cache %q, want the first post's answer from the LRU",
				what, rec.Code, rec.Header().Get("X-Config-Hash"), rec.Header().Get("X-Cache"))
		}
	}

	// Spellings of half the largest entry: about 30 fit, 160 are posted.
	const pad, posts = parseMemoMaxEntry / 2, 5 * parseMemoBytes / (parseMemoMaxEntry / 2)
	for i := 1; i <= posts; i++ {
		same("spelling", serveBody(h, "/v1/run", padded(pad+i)))
		st := memoFields(s.memo)
		if st.bytes > parseMemoBytes || int64(st.entries)*pad > parseMemoBytes {
			t.Fatalf("after %d spellings: %d entries, %d bytes accounted, budget %d", i, st.entries, st.bytes, parseMemoBytes)
		}
	}
	st := memoFields(s.memo)
	if st.evictions == 0 || st.misses != posts+1 || st.hits != 0 {
		t.Fatalf("after %d distinct spellings: %+v, want every one a miss and some evicted", posts, st)
	}
	if passed := int64(posts) * pad / parseMemoBytes; passed < 3 {
		t.Fatalf("the budget was passed only %d times over", passed)
	}

	// Least recently used goes first: what is memoised is exactly the
	// newest spellings, and the oldest parse again to the same answer.
	for i := 1; i <= posts; i++ {
		kept := s.memo.peek(scenarioEnvelope, padded(pad+i)) != nil
		if want := i > posts-st.entries; kept != want {
			t.Errorf("spelling %d of %d memoised: %v, with %d entries kept", i, posts, kept, st.entries)
		}
	}
	same("newest spelling", serveBody(h, "/v1/run", padded(pad+posts)))
	if got := memoFields(s.memo); got.hits != 1 {
		t.Errorf("the newest spelling was not answered from the memo: %+v", got)
	}
	for _, n := range []int{0, pad + 1} {
		before := memoFields(s.memo)
		same("evicted spelling", serveBody(h, "/v1/run", padded(n)))
		same("evicted spelling, again", serveBody(h, "/v1/run", padded(n)))
		if got := memoFields(s.memo); got.misses != before.misses+1 || got.hits != before.hits+1 {
			t.Errorf("evicted spelling %d: stats %+v → %+v, want one full parse, then one memo hit", n, before, got)
		}
	}

	// A spelling dearer than one entry's share is answered and not kept.
	before := memoFields(s.memo)
	for i := 0; i < 2; i++ {
		same("large spelling", serveBody(h, "/v1/run", padded(parseMemoMaxEntry)))
	}
	if got := memoFields(s.memo); got.misses != before.misses+2 || got.entries != before.entries || got.bytes != before.bytes {
		t.Errorf("a body past parseMemoMaxEntry: stats %+v → %+v, want two full parses and nothing kept", before, got)
	}
}

// Only a body that passed the full strict parse is memoised, under the
// route it passed on: a refused body is parsed every time it is posted,
// and bytes memoised for one route are a first-seen body on the other.
// (Moving memo.put above parseJob's error check breaks this test.)
func TestParseMemoKeepsOnlyParsedBodies(t *testing.T) {
	s := New(Options{Workers: 1, SweepWorkers: 1})
	defer s.Close()
	h := s.Handler()

	for _, bad := range []string{
		`{"scenario":"nope"}`,
		`{"scenario":"micro","params":{"iters":-1}}`,
		fastJob + "{}",
		`{"scenario":"micro"`,
	} {
		_, perr := parseJob(strings.NewReader(bad), new(JobConfig))
		if perr == nil {
			t.Fatalf("%s parses", bad)
		}
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(errorFrom(perr))
		for i := 0; i < 2; i++ {
			before := memoFields(s.memo)
			rec := serveBody(h, "/v1/run", []byte(bad))
			if rec.Code != http.StatusBadRequest || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
				t.Errorf("post %d of %s: %d %s, want 400 %s", i, bad, rec.Code, rec.Body, &want)
			}
			if got := memoFields(s.memo); got.misses != before.misses+1 || got.hits != before.hits || got.entries != 0 {
				t.Errorf("post %d of %s: stats %+v → %+v, want a full parse and nothing kept", i, bad, before, got)
			}
		}
	}

	for _, tc := range []struct{ body, right, wrong string }{
		{fastJob, "/v1/run", "/v1/compose"},
		{fastCompose, "/v1/compose", "/v1/run"},
	} {
		serveBody(h, tc.right, []byte(tc.body))
		if rec := serveBody(h, tc.right, []byte(tc.body)); rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
			t.Fatalf("%s re-posted to %s: %d X-Cache %q", tc.body, tc.right, rec.Code, rec.Header().Get("X-Cache"))
		}
		hits := memoFields(s.memo).hits
		rec := serveBody(h, tc.wrong, []byte(tc.body))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "unknown field") {
			t.Errorf("%s posted to %s after %s: %d %s, want the 400 a first-seen body gets", tc.body, tc.wrong, tc.right, rec.Code, rec.Body)
		}
		if got := memoFields(s.memo).hits; got != hits {
			t.Errorf("%s posted to %s was answered from %s's memo entry", tc.body, tc.wrong, tc.right)
		}
	}
}

// One key in both spellings from 8 goroutines, against a memo that holds
// one spelling at a time, so entries are evicted and refilled the whole
// way through, with asynchronous submissions of the same bytes beside
// them. Run under -race: what the memo shares between requests (the
// identity, its header slices) is only ever read.
func TestParseMemoConcurrentEviction(t *testing.T) {
	s := New(Options{Workers: 1, SweepWorkers: 1, AccessLog: io.Discard})
	defer s.Close()
	h := s.Handler()
	spellings := [][]byte{
		[]byte(fastJob),
		[]byte(`{"params":{"iters":1,"sizes":[64]},"format":"csv","scenario":"micro"}`),
	}
	s.memo = &parseMemo{lru: lru[memoKey, *identity]{budget: int64(len(spellings[1])) + 400, max: parseMemoMaxEntry}}

	first := serveBody(h, "/v1/run", spellings[0])
	if first.Code != http.StatusOK {
		t.Fatalf("cold post: %d %s", first.Code, first.Body)
	}
	const workers, rounds = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				rec := serveBody(h, "/v1/run", spellings[(g+i)%2])
				if rec.Code != http.StatusOK || rec.Header().Get("X-Config-Hash") != first.Header().Get("X-Config-Hash") ||
					rec.Header().Get("X-Scenario") != "micro" || !bytes.Equal(rec.Body.Bytes(), first.Body.Bytes()) {
					t.Errorf("goroutine %d post %d: %d %v", g, i, rec.Code, rec.Header())
					return
				}
				if i%10 == 0 {
					var info RunInfo
					rec := serveBody(h, "/v1/runs", spellings[(g+i)%2])
					if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil || rec.Code != http.StatusOK || info.State != RunDone {
						t.Errorf("goroutine %d async post %d: %d %s (%v)", g, i, rec.Code, rec.Body, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := memoFields(s.memo)
	if posts := uint64(1 + workers*rounds + workers*rounds/10); st.hits+st.misses != posts || st.evictions == 0 || st.entries != 1 {
		t.Errorf("memo after %d posts: %+v, want every post counted, evictions, one entry", posts, st)
	}
}
