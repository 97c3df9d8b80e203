package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// exampleCompose wraps a checked-in examples/ spec in the POST
// /v1/compose envelope.
func exampleCompose(t testing.TB, name string) string {
	t.Helper()
	spec, err := os.ReadFile(filepath.Join("..", "..", "examples", name))
	if err != nil {
		t.Fatal(err)
	}
	return `{"compose":` + string(spec) + `}`
}

// TestShardsNeverChangeCachedBytes is the serving-layer side of the
// execution-plan contract: Options.Shards and Options.SweepWorkers say
// how a job runs, they are not part of its identity, so servers running
// the same config at any lane worker and sweep worker count must produce
// byte-identical artifacts and identical cache keys — for a named
// scenario and for a composed spec (halo, then fetch-and-add under a
// link_down plan) alike. GOMAXPROCS is pinned to 4 so CoreBudget does not
// collapse the shard budget on a small CI host.
func TestShardsNeverChangeCachedBytes(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	jobs := []struct {
		path, body string
		post       func(*testing.T, *httptest.Server, string) (*http.Response, []byte)
	}{
		{"/v1/run", `{"scenario":"fig9","params":{"procs":[2,8],"ops_each":4}}`, post},
		{"/v1/compose", exampleCompose(t, "halo_fetchadd_linkdown.json"), postCompose},
	}
	type artifact struct {
		body []byte
		key  string
	}
	run := func(workers, shards int) []artifact {
		t.Helper()
		_, ts := newTestServer(t, Options{Workers: 1, SweepWorkers: workers, Shards: shards})
		var out []artifact
		for _, j := range jobs {
			cold, body := j.post(t, ts, j.body)
			if cold.StatusCode != http.StatusOK {
				t.Fatalf("workers=%d shards=%d %s: status %d, body %s", workers, shards, j.path, cold.StatusCode, body)
			}
			if got := cold.Header.Get("X-Cache"); got != "miss" {
				t.Fatalf("workers=%d shards=%d %s: first request X-Cache = %q, want miss", workers, shards, j.path, got)
			}
			// The cached copy must serve the same bytes the cold run produced.
			warm, warmBody := j.post(t, ts, j.body)
			if got := warm.Header.Get("X-Cache"); got != "hit" {
				t.Fatalf("workers=%d shards=%d %s: repeat request X-Cache = %q, want hit", workers, shards, j.path, got)
			}
			if !bytes.Equal(body, warmBody) {
				t.Fatalf("workers=%d shards=%d %s: cached bytes differ from cold bytes", workers, shards, j.path)
			}
			out = append(out, artifact{body, cold.Header.Get("X-Config-Hash")})
		}
		return out
	}

	base := run(1, 0)
	for _, workers := range []int{1, 4} {
		for _, shards := range []int{0, 2, 4} {
			for i, got := range run(workers, shards) {
				if !bytes.Equal(got.body, base[i].body) {
					t.Errorf("workers=%d shards=%d %s: artifact bytes differ from workers=1 shards=0", workers, shards, jobs[i].path)
				}
				if got.key != base[i].key {
					t.Errorf("workers=%d shards=%d %s: config hash %q differs from %q (the execution plan leaked into the cache key)",
						workers, shards, jobs[i].path, got.key, base[i].key)
				}
			}
		}
	}
}

// TestNewServerRejectsNegativeExecutionOptions: the execution plan is
// validated once, at construction. (A server built with Shards: -2 used
// to boot, report healthy, and then fail every job it accepted with a
// 500 from deep inside armci.)
func TestNewServerRejectsNegativeExecutionOptions(t *testing.T) {
	for _, opts := range []Options{{Shards: -1}, {Shards: -2}, {SweepWorkers: -1}} {
		s, err := NewServer(opts)
		if err == nil {
			s.Close()
			t.Errorf("NewServer(%+v) succeeded, want an error", opts)
		}
	}
}
