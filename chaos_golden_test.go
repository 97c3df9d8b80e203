package repro

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
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
