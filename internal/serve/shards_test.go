package serve

import (
	"bytes"
	"net/http"
	"runtime"
	"testing"
)

// TestShardsNeverChangeCachedBytes is the serving-layer side of the
// shard-invariance contract: Options.Shards is an execution knob, not
// part of a job's identity, so servers running the same config on any
// lane worker count must produce byte-identical artifacts and identical
// cache keys. GOMAXPROCS
// is pinned to 4 so CoreBudget does not collapse the shard budget on a
// small CI host.
func TestShardsNeverChangeCachedBytes(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	const job = `{"scenario":"fig9","params":{"procs":[2,8],"ops_each":4}}`

	run := func(shards int) (coldBody []byte, key string) {
		t.Helper()
		_, ts := newTestServer(t, Options{Workers: 1, SweepWorkers: 1, Shards: shards})
		cold, body := post(t, ts, job)
		if cold.StatusCode != http.StatusOK {
			t.Fatalf("shards=%d: status %d, body %s", shards, cold.StatusCode, body)
		}
		if got := cold.Header.Get("X-Cache"); got != "miss" {
			t.Fatalf("shards=%d: first request X-Cache = %q, want miss", shards, got)
		}
		// The cached copy must serve the same bytes the cold run produced.
		warm, warmBody := post(t, ts, job)
		if got := warm.Header.Get("X-Cache"); got != "hit" {
			t.Fatalf("shards=%d: repeat request X-Cache = %q, want hit", shards, got)
		}
		if !bytes.Equal(body, warmBody) {
			t.Fatalf("shards=%d: cached bytes differ from cold bytes", shards)
		}
		return body, cold.Header.Get("X-Config-Hash")
	}

	baseBody, baseKey := run(0)
	for _, shards := range []int{2, 4} {
		body, key := run(shards)
		if !bytes.Equal(body, baseBody) {
			t.Errorf("shards=%d: artifact bytes differ from shards=0", shards)
		}
		if key != baseKey {
			t.Errorf("shards=%d: config hash %q differs from shards=0's %q (shards leaked into the cache key)", shards, key, baseKey)
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
