package serve

import (
	"context"
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
	if entries, used, _ := c.Stats(); entries != 2 || used != 80 {
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
	entries, used, evictions := c.Stats()
	if entries != 2 || used != 80 || evictions != 1 {
		t.Errorf("after eviction: entries=%d used=%d evictions=%d, want 2/80/1", entries, used, evictions)
	}

	// Replacing a key adjusts the budget rather than double-counting.
	c.Put("a", body(60), "micro", "csv") // used 40+60 = 100, fits exactly
	if entries, used, _ := c.Stats(); entries != 2 || used != 100 {
		t.Errorf("after replace: entries=%d used=%d, want 2/100", entries, used)
	}

	// A body over the whole budget is refused without disturbing anything.
	c.Put("huge", body(101), "micro", "csv")
	if _, ok := c.Get("huge"); ok {
		t.Error("over-budget body was stored")
	}
	if entries, _, _ := c.Stats(); entries != 2 {
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
