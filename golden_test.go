package repro

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/armci"
	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from the current code")

var bg = context.Background()

// plan builds the execution plan a driver would: sweep workers x lane
// workers, resolved through sweep.CoreBudget. Tests that need more lane
// workers than the host has cores call withProcs first.
func plan(workers, shards int) *sweep.Engine { return sweep.NewSharded(workers, shards, nil) }

// withProcs raises GOMAXPROCS to at least n for the test's duration, so
// sweep.CoreBudget grants an n-lane-worker plan on any host (extra lane
// workers just multiplex, which is exactly what -race needs to see).
func withProcs(t *testing.T, n int) {
	t.Helper()
	if old := runtime.GOMAXPROCS(0); old < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

// determinismGolden pins the observable outputs of fixed-seed runs so that
// engine rewrites (event-queue layout, route caching, ...) provably change
// nothing: same event count, same final virtual time, same figure bytes.
type determinismGolden struct {
	ScenarioEvents uint64 `json:"scenario_events_fired"`
	ScenarioFinal  int64  `json:"scenario_final_ns"`
	Fig3CSVSHA256  string `json:"fig3_csv_sha256"`
	Fig9CSVSHA256  string `json:"fig9_csv_sha256"`
}

// goldenScenario is a fixed-seed multi-rank workload crossing the hot
// paths this harness optimizes: RDMA put/get, AM-serviced fetch-and-add,
// accumulate, fences, barriers, loopback (same-node peers at c=4), and a
// live observability registry (traced link reservations).
func goldenScenario() (events uint64, final sim.Time) {
	w := goldenScenarioSharded(0, obs.New(obs.WithTrackCap(256)))
	return w.K.EventsFired(), w.K.Now()
}

// goldenScenarioSharded is the golden workload with an explicit lane
// worker count (armci.Config.Shards) and registry — the knobs the
// shard-invariance and engine-equivalence tests sweep. The returned
// world is finished; callers read its kernel and aggregates.
func goldenScenarioSharded(shards int, reg *obs.Registry) *armci.World {
	return armci.MustRun(goldenConfig(shards, reg), goldenBody)
}

const goldenProcs = 24

func goldenConfig(shards int, reg *obs.Registry) armci.Config {
	return armci.Config{
		Procs: goldenProcs, ProcsPerNode: 4, AsyncThread: true,
		Seed: 7, Obs: reg, Shards: shards,
	}
}

func goldenBody(th *sim.Thread, rt *armci.Runtime) {
	a := rt.Malloc(th, 4096)
	local := rt.LocalAlloc(th, 4096)
	peer := (rt.Rank + 1) % goldenProcs
	for i := 0; i < 4; i++ {
		rt.Put(th, local, a.At(peer), 256)
		rt.Get(th, a.At(peer), local, 512)
		rt.FetchAdd(th, a.At(0), 1)
		rt.Acc(th, local, a.At(peer).Add(512), 64, 2.0)
	}
	rt.Fence(th, peer)
	rt.Barrier(th)
}

func csvHash(g *bench.Grid) string {
	var sb strings.Builder
	g.RenderCSV(&sb)
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

func TestDeterminismGolden(t *testing.T) {
	events, final := goldenScenario()
	got := determinismGolden{
		ScenarioEvents: events,
		ScenarioFinal:  int64(final),
		Fig3CSVSHA256:  csvHash(bench.Fig3(bg, plan(0, 0), []int{16, 256, 4096}, 3)),
		Fig9CSVSHA256:  csvHash(bench.Fig9(bg, plan(0, 0), []int{8, 16}, 4)),
	}

	path := filepath.Join("testdata", "determinism_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %+v", got)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run TestDeterminismGolden -update .`): %v", err)
	}
	var want determinismGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("determinism golden mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestDeterminismRepeatable guards against intra-process nondeterminism
// (map iteration leaking into event order): two back-to-back runs of the
// scenario must agree exactly.
func TestDeterminismRepeatable(t *testing.T) {
	e1, f1 := goldenScenario()
	e2, f2 := goldenScenario()
	if e1 != e2 || f1 != f2 {
		t.Fatalf("same-process reruns diverge: (%d, %d) vs (%d, %d)", e1, f1, e2, f2)
	}
}
