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

// TestRunLogPinned pins the served bytes of two runs' whole event logs,
// SSE framing included: a single-point fetchadd, and a three-point one
// whose trace lines cross traceBudget, so its log carries dropped events.
// The constants were taken before the trace exporters stopped using fmt;
// any change to how a log is formatted, trimmed or ordered moves them.
func TestRunLogPinned(t *testing.T) {
	for _, tc := range []struct {
		name, job, sha string
		dropped        bool
	}{
		{"single point",
			`{"compose":{"phases":[{"pattern":"fetchadd","params":{"ops_each":3},"topology":{"procs":[16],"per_node":4}}]}}`,
			"512789f4a3eba77d91a5bdb53ba55387ebe4a7da2b9c2a98a4af84e003bb8305", false},
		{"three points past the budget",
			`{"compose":{"phases":[{"pattern":"fetchadd","params":{"ops_each":2},"topology":{"procs":[64,128,256]}}]}}`,
			"a4be320dd79a1779f341b0edec660ac3add2bb9af6118f4eda8985dc20d5487a", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Options{})
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
			raw, evs := readSSE(t, ts.URL+"/v1/runs/"+info.ID+"/events")
			if last := evs[len(evs)-1]; last.name != "done" || !strings.Contains(last.data, `"status":"done"`) {
				t.Fatalf("run ended with %s %s", last.name, last.data)
			}
			if got := strings.Contains(raw, "\nevent: dropped\n"); got != tc.dropped {
				t.Fatalf("dropped events present = %v, want %v", got, tc.dropped)
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
