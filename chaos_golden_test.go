package repro

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/armci"
	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/sim"
)

// chaosGolden pins the observable outputs of a fixed-seed chaos run:
// byte-reproducible fault injection is part of the subsystem's contract
// (a chaos failure must replay exactly from its seed).
type chaosGolden struct {
	EventsFired uint64 `json:"events_fired"`
	FinalNS     int64  `json:"final_ns"`
	Counter     int64  `json:"counter"`
	Retries     int64  `json:"retries"`
	Timeouts    int64  `json:"timeouts"`
	Recovered   int64  `json:"recovered"`
	Dropped     uint64 `json:"dropped"`
	Duplicated  uint64 `json:"duplicated"`
}

func chaosFixture() (chaosGolden, bench.ChaosResult) {
	r := bench.ChaosRun(bg, plan(0, 0), 8, 4, 10, 42)
	return chaosGolden{
		EventsFired: r.EventsFired,
		FinalNS:     int64(r.FinalVirtual),
		Counter:     r.Counter,
		Retries:     r.Retries,
		Timeouts:    r.Timeouts,
		Recovered:   r.Recovered,
		Dropped:     r.Dropped,
		Duplicated:  r.Duplicated,
	}, r
}

func TestChaosDeterminismGolden(t *testing.T) {
	got, r := chaosFixture()
	if !r.Clean() {
		t.Fatalf("chaos run corrupted data: %+v", r)
	}
	// The fixture must actually exercise recovery, not merely survive an
	// uneventful run.
	if r.Retries == 0 || r.Timeouts == 0 || r.Dropped == 0 {
		t.Fatalf("chaos run injected no recoverable faults: %+v", r)
	}

	path := filepath.Join("testdata", "chaos_golden.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("chaos golden updated: %+v", got)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run TestChaosDeterminismGolden -update .`): %v", err)
	}
	var want chaosGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("chaos determinism mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestChaosRepeatable: two back-to-back chaos runs with the same seed
// must agree on every counter and on the rendered grid bytes, while a
// different seed must not be forced to.
func TestChaosRepeatable(t *testing.T) {
	g1, _ := chaosFixture()
	g2, _ := chaosFixture()
	if g1 != g2 {
		t.Fatalf("same-seed chaos runs diverge:\n  %+v\n  %+v", g1, g2)
	}
	var a, b strings.Builder
	bench.Chaos(bg, plan(0, 0), []int{8}, 5, 9).Render(&a)
	bench.Chaos(bg, plan(0, 0), []int{8}, 5, 9).Render(&b)
	if a.String() != b.String() {
		t.Fatalf("chaos grid bytes diverge:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestChaosCountsAreTheFields: on a traced chaos run each exported counter
// is the field its layer counts in, read by the registry — one count, not
// a copy kept beside it.
func TestChaosCountsAreTheFields(t *testing.T) {
	const procs, opsEach = 16, 10
	reg := obs.New(obs.WithTrackCap(256))
	cfg := armci.Config{Procs: procs, ProcsPerNode: 4, AsyncThread: true, Seed: 42,
		Fault: bench.ChaosPlan(42), Obs: reg}
	w, err := armci.Run(cfg, func(th *sim.Thread, rt *armci.Runtime) {
		a := rt.Malloc(th, 16+procs*64)
		if rt.Rank == 0 {
			rt.Barrier(th)
			return
		}
		local := rt.LocalAlloc(th, 64)
		slot := a.At(0).Add(16 + rt.Rank*64)
		if d := bench.FaultEpoch - th.Now(); d > 0 {
			th.Sleep(d) // align the op stream to the plan's fault windows
		}
		for i := 0; i < opsEach; i++ {
			rt.FetchAddErr(th, a.At(0), 1)
			rt.PutErr(th, local, slot, 64)
			rt.GetErr(th, slot, local, 64)
			rt.AccErr(th, local, a.At(0).Add(8), 8, 1.0)
			th.Sleep(100 * sim.Microsecond)
		}
		rt.Barrier(th)
	})
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	// Each family's samples summed, labels dropped.
	sums := map[string]int64{}
	for _, line := range strings.Split(text.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		v, err := strconv.ParseInt(line[i+1:], 10, 64)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		name, _, _ := strings.Cut(line[:i], "{")
		sums[name] += v
	}

	tot := w.M.Net.Totals()
	var advances uint64
	for i := range w.Runtimes {
		for j := range w.Runtimes[i].C.Contexts {
			advances += w.Runtimes[i].C.Contexts[j].Advances
		}
	}
	agg := w.AggregateStats()
	if w.Faults.Dropped == 0 || w.Faults.Duplicated == 0 || agg.Get("retry") == 0 {
		t.Fatalf("dropped %d, duplicated %d, retried %d: the run must exercise every fault count",
			w.Faults.Dropped, w.Faults.Duplicated, agg.Get("retry"))
	}
	for _, c := range []struct {
		family string
		field  int64
	}{
		{"sim_events", int64(w.K.EventsFired())},
		{"network_messages", int64(tot.Messages)},
		{"network_hops", int64(tot.Hops)},
		{"fault_msg_dropped", int64(w.Faults.Dropped)},
		{"fault_msg_duplicated", int64(w.Faults.Duplicated)},
		{"pami_ctx_advances", int64(advances)},
		{"armci_retry", agg.Get("retry")},
	} {
		if sums[c.family] != c.field {
			t.Errorf("%s = %d, its field holds %d", c.family, sums[c.family], c.field)
		}
	}
}
