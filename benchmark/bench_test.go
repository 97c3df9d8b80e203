package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// The benchmark finds BENCHMARK.json and its goldens relative to the
// repo root, where `go run ./benchmark` starts it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// contract is the part of BENCHMARK.json the program must agree with.
type contract struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestNamesMatchContract pins the program's workload and metric lists to
// BENCHMARK.json, name for name, unit for unit, in order.
func TestNamesMatchContract(t *testing.T) {
	c := readContract(t)
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || !nameOK.MatchString(w.name) {
			t.Errorf("workload %d: program %q, BENCHMARK.json %q", i, w.name, c.Workloads[i].Name)
		}
	}
	check := func(kind string, defs []metricDef, want []struct{ Name, Unit string }) {
		if len(defs) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(want), len(defs))
		}
		seen := make(map[string]bool)
		for i, d := range defs {
			if d.name != want[i].Name || d.unit != want[i].Unit {
				t.Errorf("%s metric %d: program %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, want[i].Name, want[i].Unit)
			}
			if !nameOK.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s metric %q: bad or repeated name", kind, d.name)
			}
			seen[d.name] = true
		}
	}
	check("end_to_end", endToEnd, c.EndToEnd)
	check("per_layer", perLayer, c.PerLayer)
}

// TestWorkloadsCheckPath runs every workload at reduced size, untraced
// and traced: every operation must check out, the result line must carry
// exactly the contract's metrics, and the trace file must be valid JSON
// whose child spans nest inside their parents. Nothing is timed.
func TestWorkloadsCheckPath(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			e := &env{workload: w.name, seed: 7, seconds: 0.1, trace: trace, short: true, outDir: out}
			line, err := runOne(e)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d operations failed", w.name, trace, line.Correct, line.Failed, line.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics in the result line, want %d", w.name, trace, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := line.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or in unit %q, want %q", w.name, trace, d.name, m.Unit, d.unit)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if line.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, line.Metrics[d.name].Value)
					}
				}
				continue
			}
			data, err := os.ReadFile(filepath.Join(out, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := checkTrace(data); err != nil {
				t.Errorf("%s: trace file: %v", w.name, err)
			}
		}
	}
	// The scratch stores are gone; only trace files remain.
	left, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range left {
		if f.IsDir() {
			t.Errorf("scratch directory %s left behind", f.Name())
		}
	}
}

func TestCheckTraceRejectsEscapingChild(t *testing.T) {
	tf := traceFile{Spans: []span{
		{ID: 1, Name: "op", Start: 10, End: 20},
		{ID: 2, Parent: 1, Name: "child", Start: 15, End: 25},
	}}
	data, err := json.Marshal(tf)
	if err != nil {
		t.Fatal(err)
	}
	if checkTrace(data) == nil {
		t.Error("a child span ending after its parent passed the check")
	}
	if checkTrace([]byte("{")) == nil {
		t.Error("invalid JSON passed the check")
	}
}

func TestPaperErr(t *testing.T) {
	csv := "# phase 0: ping\nbytes,AT_get_us,AT_put_us\n16.000,2.890,2.700\n524288.000,300.000,299.000\n1048576.000,595.373,594.000\n"
	got, err := paperErr([]byte(csv))
	if err != nil {
		t.Fatal(err)
	}
	// get and put match the paper exactly; the slope is 524288 B over
	// 295.373 us = 1775.0 MB/s.
	if got > 0.01 {
		t.Errorf("paperErr = %v %%, want ~0", got)
	}
	if _, err := paperErr([]byte("bytes,get,put\n16,2.9,2.7\n")); err == nil {
		t.Error("a sweep without the 512 KiB and 1 MiB rows gave a figure")
	}
}

func TestSeedOneKeepsDocumentedSizes(t *testing.T) {
	for n := 1; n < 20; n++ {
		if perturb(1, n) != 0 {
			t.Fatalf("perturb(1, %d) != 0: seed 1 must give the documented sizes", n)
		}
		if p := perturb(12345, n); p < 0 || p >= n {
			t.Fatalf("perturb(12345, %d) = %d, outside [0, %d)", n, p, n)
		}
	}
}

// TestPredictionsCoverEveryLayerMetric keeps predictions.json in step
// with the metric catalogue: one entry per per-layer metric, naming only
// end-to-end metrics and workloads that exist, each workload on exactly
// one side.
func TestPredictionsCoverEveryLayerMetric(t *testing.T) {
	data, err := os.ReadFile("benchmark/predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PerLayer map[string]struct {
			Moves, On []string
			NoChange  []string `json:"no_change_on"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	e2e := make(map[string]bool)
	for _, d := range endToEnd {
		e2e[d.name] = true
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Errorf("predictions.json has %d entries, the program %d per-layer metrics", len(doc.PerLayer), len(perLayer))
	}
	for _, d := range perLayer {
		p, ok := doc.PerLayer[d.name]
		if !ok {
			t.Errorf("no prediction for %s", d.name)
			continue
		}
		for _, m := range p.Moves {
			if !e2e[m] {
				t.Errorf("%s: moves %q, not an end-to-end metric", d.name, m)
			}
		}
		side := make(map[string]int)
		for _, w := range p.On {
			side[w]++
		}
		for _, w := range p.NoChange {
			side[w]++
		}
		for _, w := range workloads {
			if side[w.name] != 1 {
				t.Errorf("%s: workload %s is on %d sides of the prediction", d.name, w.name, side[w.name])
			}
		}
		if len(side) != len(workloads) {
			t.Errorf("%s: names a workload that does not exist", d.name)
		}
	}
}
