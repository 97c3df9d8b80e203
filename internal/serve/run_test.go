package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestRunLogPinned pins the served bytes of three runs' whole event logs,
// SSE framing included: two an asynchronous submission started — a
// single-point fetchadd, and a three-point one whose trace lines cross
// traceBudget, so its log carries dropped events — and the three-point
// one again, started by a synchronous request, whose log carries its
// points and no observation. The asynchronous constants were taken
// before the trace exporters stopped using fmt; any change to how a log
// is formatted, trimmed or ordered moves them.
func TestRunLogPinned(t *testing.T) {
	const threePoints = `{"compose":{"phases":[{"pattern":"fetchadd","params":{"ops_each":2},"topology":{"procs":[64,128,256]}}]}}`
	for _, tc := range []struct {
		name, job, sha string
		async, dropped bool
	}{
		{"single point",
			`{"compose":{"phases":[{"pattern":"fetchadd","params":{"ops_each":3},"topology":{"procs":[16],"per_node":4}}]}}`,
			"512789f4a3eba77d91a5bdb53ba55387ebe4a7da2b9c2a98a4af84e003bb8305", true, false},
		{"three points past the budget", threePoints,
			"a4be320dd79a1779f341b0edec660ac3add2bb9af6118f4eda8985dc20d5487a", true, true},
		{"synchronous", threePoints,
			"af7cdc79cb2739e0fb35fe9fba9dc76de12e26af4457fc472a021e7629ea38f9", false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Options{})
			var id string
			if tc.async {
				resp, err := http.Post(ts.URL+"/v1/compose?async=1", "application/json", strings.NewReader(tc.job))
				if err != nil {
					t.Fatal(err)
				}
				var info RunInfo
				json.NewDecoder(resp.Body).Decode(&info)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted || info.ID == "" {
					t.Fatalf("async compose: status %d, info %+v", resp.StatusCode, info)
				}
				id = info.ID
			} else {
				resp, err := http.Post(ts.URL+"/v1/compose", "application/json", strings.NewReader(tc.job))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				hash := resp.Header.Get("X-Config-Hash")
				if resp.StatusCode != http.StatusOK || len(hash) < runIDLen {
					t.Fatalf("sync compose: status %d, X-Config-Hash %q", resp.StatusCode, hash)
				}
				id = hash[:runIDLen]
			}
			raw, evs := readSSE(t, ts.URL+"/v1/runs/"+id+"/events")
			if last := evs[len(evs)-1]; last.name != "done" || !strings.Contains(last.data, `"status":"done"`) {
				t.Fatalf("run ended with %s %s", last.name, last.data)
			}
			if got := strings.Contains(raw, "\nevent: dropped\n"); got != tc.dropped {
				t.Fatalf("dropped events present = %v, want %v", got, tc.dropped)
			}
			if !tc.async {
				points := 0
				for _, ev := range evs {
					switch ev.name {
					case "point":
						points++
					case "metrics", "trace", "dropped":
						t.Fatalf("a synchronous run's log carries a %s event: %s", ev.name, ev.data)
					}
				}
				if points != 6 { // two points per procs value
					t.Fatalf("a synchronous run's log carries %d point events, want 6", points)
				}
			}
			sum := sha256.Sum256([]byte(raw))
			if got := hex.EncodeToString(sum[:]); got != tc.sha {
				t.Errorf("event log sha256 = %s, want %s (%d bytes, %d events)", got, tc.sha, len(raw), len(evs))
			}
		})
	}
}

// TestPointDoneAllocBudget: what delivering one point costs the heap does
// not grow with the records the point's trace keeps. A fresh run and
// emitter each time, so the point pays for its first buffers too; the
// lines are formatted into one buffer, which the log copies once. The
// slack of 2 is for collections the larger case triggers, which empty
// fmt's and encoding/json's pools.
func TestPointDoneAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	allocs := func(records int) float64 {
		child := obs.New()
		for i := 0; i < records; i++ {
			at := int64(i * 10)
			child.SpanArg(obs.TrackRank, fmt.Sprintf("rank-%d", i%4), "op", "rdma", at, at+5, int64(i))
		}
		child.Counter("ops").Add(int64(records))
		reg := obs.New()
		reg.Merge(child)
		return testing.AllocsPerRun(20, func() {
			run := newRun("id", "key", "micro", "csv")
			newRunEmitter(run, reg, traceBudget).PointDone(0, 1, child)
			if last := run.log[len(run.log)-1]; last.Name != "trace" {
				t.Fatalf("%d records: the point's last event is %s, want trace", records, last.Name)
			}
		})
	}
	small, large := allocs(64), allocs(2048)
	t.Logf("PointDone: %.0f allocations at 64 retained records, %.0f at 2048", small, large)
	if large > small+2 {
		t.Errorf("PointDone allocates %.0f objects at 2048 records, %.0f at 64; want within 2", large, small)
	}
}
