package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// wireFreeze is testdata/legacy_wire_freeze.json: what the flat-struct
// scenario registry (internal/bench/registry.go, deleted with this file's
// arrival) answered for a table of {"scenario":…} bodies, recorded on
// the last commit that had it. It is data, not a golden to re-pin: the
// keys are the identities of artifacts already cached in the field.
type wireFreeze struct {
	Rows []struct {
		Body   string `json:"body"`
		Key    string `json:"key"`    // accepted: the config hash
		Reject bool   `json:"reject"` // refused with 400
	} `json:"rows"`
	ArtifactSHA256 map[string]map[string]string `json:"artifact_sha256"` // scenario → format → sha
}

func loadWireFreeze(t testing.TB) wireFreeze {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "legacy_wire_freeze.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f wireFreeze
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// undeclaredNow400 is the intended tightening: a named scenario rejects
// a parameter its schema does not declare. The old registry accepted
// these, ignored the parameter when running, and hashed it into the key —
// one experiment, two cache entries. Value: the error's field locator.
var undeclaredNow400 = map[string]string{
	`{"scenario":"micro","params":{"procs":[4]}}`:             "params.procs",
	`{"scenario":"tableii","params":{"iters":3}}`:             "params.iters",
	`{"scenario":"fig9","params":{"seed":7}}`:                 "params.seed",
	`{"scenario":"amo","params":{"per_node":4}}`:              "params.per_node",
	`{"scenario":"scf","params":{"sizes":[64],"ops_each":2}}`: "params.ops_each",
	`{"scenario":"micro","params":{"procs":[]}}`:              "params.procs",
}

func TestLegacyWireFreeze(t *testing.T) {
	f := loadWireFreeze(t)
	if len(f.Rows) < 30 {
		t.Fatalf("freeze table has %d rows", len(f.Rows))
	}
	seenUndeclared := 0
	for _, row := range f.Rows {
		j, err := parseJob(strings.NewReader(row.Body), new(JobConfig))
		if field, ok := undeclaredNow400[row.Body]; ok {
			seenUndeclared++
			if row.Reject {
				t.Errorf("%s: listed as a flip but the parent already refused it", row.Body)
			}
			if e := errorFrom(err); err == nil || e.Field != field {
				t.Errorf("%s: want 400 naming %s, got key %q error %+v", row.Body, field, j.key, e)
			}
			continue
		}
		switch {
		case row.Reject && err == nil:
			t.Errorf("%s: the parent refused this, now accepted under key %s", row.Body, j.key)
		case !row.Reject && err != nil:
			t.Errorf("%s: the parent accepted this (key %s), now refused: %v", row.Body, row.Key, err)
		case !row.Reject && j.key != row.Key:
			t.Errorf("%s: key moved: parent %s, now %s", row.Body, row.Key, j.key)
		}
	}
	if seenUndeclared != len(undeclaredNow400) {
		t.Errorf("the flip list names bodies missing from the table (%d/%d)",
			seenUndeclared, len(undeclaredNow400))
	}
}

// The bytes served for the six default submissions, in every format, are
// the parent's: a named scenario's artifact is still the bare grid.
func TestLegacyArtifactsFrozen(t *testing.T) {
	f := loadWireFreeze(t)
	_, ts := newTestServer(t, Options{})
	for name, formats := range f.ArtifactSHA256 {
		for format, want := range formats {
			resp, body := post(t, ts, `{"scenario":"`+name+`","format":"`+format+`"}`)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s/%s: status %d: %s", name, format, resp.StatusCode, body)
			}
			sum := sha256.Sum256(body)
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s/%s: artifact moved: parent %s, now %s\n%s", name, format, want, got, body)
			}
		}
	}
}

// GET /v1/scenarios is byte-identical to the two-registry parent's: the
// same eleven entries, kinds, defaults, axes and order.
func TestScenariosCatalogFrozen(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "scenarios_catalog.json"))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, _ := io.ReadAll(resp.Body)
	if !bytes.Equal(got, want) {
		t.Errorf("catalog moved:\n got %s\nwant %s", got, want)
	}
}

// One value per body: a second object, stray text, or unbalanced closers
// after the JSON value are a 400, not a 200 under the first value's key.
func TestTrailingBytesRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	const run = `{"scenario":"tableii"}`
	const compose = `{"compose":{"phases":[{"pattern":"tableii"}]}}`
	for _, tc := range []struct{ path, body string }{
		{"/v1/run", run + `{"scenario":"nope"}`},
		{"/v1/run", run + ` trailing garbage`},
		{"/v1/runs", run + run},
		{"/v1/runs", run + "\n]"},
		{"/v1/compose", compose + `]]]`},
		{"/v1/compose?async=1", compose + compose},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e apiError
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil ||
			e.Error == "" || e.Field != "body" || e.Hint != "send exactly one JSON value" {
			t.Errorf("POST %s %q: status %d, error body %+v (%v); want a 400 with error, field and hint",
				tc.path, tc.body, resp.StatusCode, e, err)
		}
	}
	// Trailing whitespace is not data.
	for path, body := range map[string]string{"/v1/run": run + " \n\t", "/v1/compose": compose + "\r\n"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("POST %s with trailing whitespace: status %d", path, resp.StatusCode)
		}
	}
}

// A named scenario is a pattern like any other: as a compose phase it
// renders the grid POST /v1/run serves, under the phase header, and —
// consuming no axes — refuses every one of them by name.
func TestNamedScenarioAsComposePhase(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	const params = `{"procs":[2,16],"ops_each":4}`
	resp, bare := post(t, ts, `{"scenario":"fig9","params":`+params+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d: %s", resp.StatusCode, bare)
	}
	resp, composed := postCompose(t, ts, `{"compose":{"phases":[{"pattern":"fig9","params":`+params+`}]}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compose: status %d: %s", resp.StatusCode, composed)
	}
	if want := "# phase 0: fig9\n" + string(bare); string(composed) != want {
		t.Errorf("composed fig9 differs from the named run:\n got %s\nwant %s", composed, want)
	}

	for axis, field := range map[string]string{
		`"topology":{"procs":[4]}`:                                               "compose.phases[0].topology",
		`"engine":{"mode":"async"}`:                                              "compose.phases[0].engine.mode",
		`"sizes":{"kind":"fixed","bytes":64}`:                                    "compose.phases[0].sizes",
		`"fault":{"events":[{"kind":"link_down","start_us":30000,"dur_us":10}]}`: "compose.phases[0].fault",
	} {
		resp, body := postCompose(t, ts, `{"compose":{"phases":[{"pattern":"fig9",`+axis+`}]}}`)
		var e apiError
		if err := json.Unmarshal(body, &e); err != nil || resp.StatusCode != http.StatusBadRequest || e.Field != field {
			t.Errorf("fig9 with %s: status %d, error %+v; want 400 naming %s", axis, resp.StatusCode, e, field)
		}
	}
}
