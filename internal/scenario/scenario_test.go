package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/sweep"
)

func mustCanon(t *testing.T, body string) Spec {
	t.Helper()
	sp, err := Parse(strings.NewReader(body))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	canon, err := sp.Canon()
	if err != nil {
		t.Fatalf("canon: %v", err)
	}
	return canon
}

func canonJSON(t *testing.T, sp Spec) string {
	t.Helper()
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// Two spellings of the same composed scenario — defaults omitted vs
// spelled out, axes reordered — must canonicalize to identical JSON
// (and therefore the same serving-layer key).
func TestCanonTwoSpellings(t *testing.T) {
	terse := mustCanon(t, `{"phases":[
		{"pattern":"fetchadd"},
		{"pattern":"ping","fault":{"events":[
			{"kind":"delay","start_us":30000,"dur_us":1000,"prob":0.5,"delay_us":5},
			{"kind":"link_down","start_us":30000,"dur_us":100}]}}
	]}`)
	spelled := mustCanon(t, `{"version":1,"phases":[
		{"pattern":"fetchadd",
		 "params":{"ops_each":8,"compute":false},
		 "topology":{"procs":[64,2,16],"per_node":16},
		 "engine":{"mode":"both"}},
		{"pattern":"ping",
		 "params":{"iters":5},
		 "sizes":{"kind":"sweep","min_bytes":16,"max_bytes":65536},
		 "engine":{"mode":"async"},
		 "fault":{"seed":42,"events":[
			{"kind":"link_down","link":-1,"start_us":30000,"dur_us":100},
			{"kind":"delay","src":-1,"dst":-1,"start_us":30000,"dur_us":1000,"prob":0.5,"delay_us":5}]}}
	]}`)
	a, b := canonJSON(t, terse), canonJSON(t, spelled)
	if a != b {
		t.Errorf("canonical forms differ:\n  terse:   %s\n  spelled: %s", a, b)
	}
}

// Canon must be idempotent: the canonical form re-canonicalizes to
// itself, byte for byte.
func TestCanonIdempotent(t *testing.T) {
	c1 := mustCanon(t, `{"phases":[
		{"pattern":"dgemm"},
		{"pattern":"ping","sizes":{"kind":"mixture","points":[
			{"bytes":4096},{"bytes":64,"weight":8}]},
		 "fault":{"events":[{"kind":"link_down","start_us":30000,"dur_us":50}]}}]}`)
	c2, err := c1.Canon()
	if err != nil {
		t.Fatalf("re-canon: %v", err)
	}
	if a, b := canonJSON(t, c1), canonJSON(t, c2); a != b {
		t.Errorf("canon not idempotent:\n  once:  %s\n  twice: %s", a, b)
	}
}

// Malformed specs must fail with a SpecError naming the offending
// field.
func TestCanonValidationTable(t *testing.T) {
	cases := []struct {
		name, body, field string
	}{
		{"no phases", `{"phases":[]}`, "phases"},
		{"unknown pattern", `{"phases":[{"pattern":"warp"}]}`, "phases[0].pattern"},
		{"bad version", `{"version":3,"phases":[{"pattern":"ping"}]}`, "version"},
		{"unknown param", `{"phases":[{"pattern":"ping","params":{"width":3}}]}`,
			"phases[0].params.width"},
		{"param type", `{"phases":[{"pattern":"ping","params":{"iters":"many"}}]}`,
			"phases[0].params.iters"},
		{"param bounds", `{"phases":[{"pattern":"fetchadd","params":{"ops_each":100000}}]}`,
			"phases[0].params.ops_each"},
		{"out-of-bounds procs", `{"phases":[{"pattern":"worksteal","topology":{"procs":[100000]}}]}`,
			"phases[0].topology.procs"},
		{"duplicate procs", `{"phases":[{"pattern":"worksteal","topology":{"procs":[4,4]}}]}`,
			"phases[0].topology.procs"},
		{"sizes on sizeless pattern", `{"phases":[{"pattern":"halo","sizes":{"kind":"fixed","bytes":64}}]}`,
			"phases[0].sizes"},
		{"procs on fixed-topology pattern", `{"phases":[{"pattern":"ping","topology":{"procs":[2]}}]}`,
			"phases[0].topology"},
		{"derived procs", `{"phases":[{"pattern":"halo","topology":{"procs":[8]}}]}`,
			"phases[0].topology.procs"},
		{"consistency on non-dgemm", `{"phases":[{"pattern":"ping","engine":{"consistency":"both"}}]}`,
			"phases[0].engine.consistency"},
		{"mode on dgemm", `{"phases":[{"pattern":"dgemm","engine":{"mode":"both"}}]}`,
			"phases[0].engine.mode"},
		{"bad mode", `{"phases":[{"pattern":"ping","engine":{"mode":"turbo"}}]}`,
			"phases[0].engine.mode"},
		{"bad size kind", `{"phases":[{"pattern":"ping","sizes":{"kind":"zipf"}}]}`,
			"phases[0].sizes.kind"},
		{"size bounds", `{"phases":[{"pattern":"ping","sizes":{"kind":"fixed","bytes":4}}]}`,
			"phases[0].sizes.bytes"},
		{"mixed dist fields", `{"phases":[{"pattern":"ping","sizes":{"kind":"fixed","bytes":64,"min_bytes":16}}]}`,
			"phases[0].sizes"},
		{"non-power-of-two sweep", `{"phases":[{"pattern":"ping","sizes":{"kind":"sweep","min_bytes":24,"max_bytes":64}}]}`,
			"phases[0].sizes.min_bytes"},
		{"duplicate mixture size", `{"phases":[{"pattern":"ping","sizes":{"kind":"mixture","points":[{"bytes":64},{"bytes":64}]}}]}`,
			"phases[0].sizes.points"},
		{"fault on faultless pattern", `{"phases":[{"pattern":"halo","fault":{"events":[{"kind":"link_down","start_us":0,"dur_us":1}]}}]}`,
			"phases[0].fault"},
		{"axis on a named scenario", `{"phases":[{"pattern":"fig9","topology":{"per_node":4}}]}`,
			"phases[0].topology"},
		{"undeclared param on a named scenario", `{"phases":[{"pattern":"micro","params":{"procs":[4]}}]}`,
			"phases[0].params.procs"},
		// 2^53+1 reaches Canon as the float64 2^53: refused, not rounded.
		{"seed past float64 precision", `{"phases":[{"pattern":"chaos","params":{"seed":9007199254740993}}]}`,
			"phases[0].params.seed"},
		{"empty fault", `{"phases":[{"pattern":"ping","fault":{"events":[]}}]}`,
			"phases[0].fault.events"},
		{"bad fault kind", `{"phases":[{"pattern":"ping","fault":{"events":[{"kind":"meteor","start_us":0,"dur_us":1}]}}]}`,
			"phases[0].fault.events[0].kind"},
		{"bad fault window", `{"phases":[{"pattern":"ping","fault":{"events":[{"kind":"link_down","start_us":100,"dur_us":0}]}}]}`,
			"phases[0].fault.events[0].dur_us"},
		{"bad fault prob", `{"phases":[{"pattern":"ping","fault":{"events":[{"kind":"delay","start_us":0,"dur_us":1,"prob":1.5,"delay_us":5}]}}]}`,
			"phases[0].fault.events[0].prob"},
		{"fault field misuse", `{"phases":[{"pattern":"ping","fault":{"events":[{"kind":"link_down","start_us":0,"dur_us":1,"prob":0.5}]}}]}`,
			"phases[0].fault.events[0].prob"},
		{"tile divides n", `{"phases":[{"pattern":"dgemm","params":{"n":48,"tile":9}}]}`,
			"phases[0].params.tile"},
		{"halo too small", `{"phases":[{"pattern":"halo","params":{"tiles_x":1,"tiles_y":1}}]}`,
			"phases[0].params.tiles_y"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := Parse(strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			_, err = sp.Canon()
			if err == nil {
				t.Fatal("canon accepted a malformed spec")
			}
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("error is %T, want *SpecError: %v", err, err)
			}
			if se.Field != tc.field {
				t.Errorf("field = %q, want %q (hint: %s)", se.Field, tc.field, se.Hint)
			}
		})
	}
}

// composeTestSpec is a small two-phase spec (one promoted example
// pattern, one legacy figure pattern with a fault plan) sized for test
// latency.
const composeTestSpec = `{"phases":[
	{"pattern":"halo","params":{"tiles_x":2,"tiles_y":1,"tile_n":8,"iters":3},
	 "topology":{"per_node":2},"engine":{"mode":"async"}},
	{"pattern":"fetchadd","params":{"ops_each":3},
	 "topology":{"procs":[4],"per_node":4},"engine":{"mode":"default"},
	 "fault":{"seed":7,"events":[
		{"kind":"link_down","start_us":30050,"dur_us":100},
		{"kind":"delay","start_us":30000,"dur_us":2000,"prob":0.1,"delay_us":5}]}}
]}`

func renderComposed(t *testing.T, workers, shards int, format string) []byte {
	t.Helper()
	sp, err := Parse(strings.NewReader(composeTestSpec))
	if err != nil {
		t.Fatal(err)
	}
	eng := sweep.NewSharded(workers, shards, nil)
	res, err := Run(context.Background(), eng, sp)
	if err != nil {
		t.Fatalf("run (workers=%d shards=%d): %v", workers, shards, err)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf, format); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A composed run must render byte-identically at every sweep-worker and
// lane-shard count — the invariant that lets the serving layer cache
// composed results under a content address.
func TestComposedWorkerShardInvariance(t *testing.T) {
	base := renderComposed(t, 1, 1, "csv")
	if len(base) == 0 {
		t.Fatal("empty artifact")
	}
	for _, wk := range []struct{ workers, shards int }{{4, 1}, {1, 4}, {4, 4}} {
		got := renderComposed(t, wk.workers, wk.shards, "csv")
		if !bytes.Equal(base, got) {
			t.Errorf("workers=%d shards=%d: bytes differ from serial run",
				wk.workers, wk.shards)
		}
	}
}

// Every format renders, and the JSON form is one well-formed document
// with one entry per phase.
func TestComposedFormats(t *testing.T) {
	for _, format := range []string{"csv", "text", "json"} {
		b := renderComposed(t, 2, 1, format)
		if len(b) == 0 {
			t.Errorf("%s: empty artifact", format)
		}
	}
	var doc struct {
		Phases []struct {
			Pattern string          `json:"pattern"`
			Grid    json.RawMessage `json:"grid"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(renderComposed(t, 2, 1, "json"), &doc); err != nil {
		t.Fatalf("json artifact: %v", err)
	}
	if len(doc.Phases) != 2 || doc.Phases[0].Pattern != "halo" || doc.Phases[1].Pattern != "fetchadd" {
		t.Errorf("unexpected phase structure: %+v", doc.Phases)
	}
}

// The remaining promoted patterns run end to end with their defaults
// scaled down.
func TestPromotedPatternsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second composed run")
	}
	spec := `{"phases":[
		{"pattern":"worksteal","params":{"tasks":24},"topology":{"procs":[4],"per_node":4},
		 "engine":{"mode":"both"}},
		{"pattern":"dgemm","params":{"n":24,"tile":12},"topology":{"procs":[4],"per_node":4}},
		{"pattern":"ping","sizes":{"kind":"mixture","points":[{"bytes":64,"weight":4},{"bytes":4096}]},
		 "params":{"iters":2},"engine":{"mode":"async"}}
	]}`
	sp, err := Parse(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), sweep.NewSharded(2, 0, nil), sp)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf, "text"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"worksteal", "dgemm", "ping", "verified", "weighted mean"} {
		if !strings.Contains(out, want) {
			t.Errorf("text artifact missing %q", want)
		}
	}
	if strings.Contains(out, "NO") {
		t.Errorf("dgemm verification failed:\n%s", out)
	}
}

// Parse reads one JSON value: whatever follows it other than whitespace
// is an error, not a silently dropped tail.
func TestParseRejectsTrailingData(t *testing.T) {
	const spec = `{"phases":[{"pattern":"tableii"}]}`
	for _, tail := range []string{`{"phases":[]}`, ` x`, `]]]`, "\n}"} {
		if _, err := Parse(strings.NewReader(spec + tail)); !errors.Is(err, ErrTrailingData) {
			t.Errorf("%q after the spec: want ErrTrailingData, got %v", tail, err)
		}
	}
	if _, err := Parse(strings.NewReader(spec + " \n\t\r\n")); err != nil {
		t.Errorf("trailing whitespace refused: %v", err)
	}
}
