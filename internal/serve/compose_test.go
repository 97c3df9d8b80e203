package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// fastCompose is a two-phase composed spec (one promoted pattern, one
// legacy figure pattern with a fault plan) sized for test latency.
const fastCompose = `{"compose":{"phases":[
	{"pattern":"halo","params":{"tiles_x":2,"tiles_y":1,"tile_n":8,"iters":2},
	 "topology":{"per_node":2},"engine":{"mode":"async"}},
	{"pattern":"fetchadd","params":{"ops_each":2},
	 "topology":{"procs":[4],"per_node":4},"engine":{"mode":"default"},
	 "fault":{"seed":7,"events":[{"kind":"link_down","start_us":30050,"dur_us":100}]}}
]}}`

func postCompose(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/compose", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/compose: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// The cache contract extends to composed jobs: cold and cached responses
// are byte-identical, and a different spelling of the same spec hits the
// same entry.
func TestComposeColdThenCachedByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	cold, coldBody := postCompose(t, ts, fastCompose)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold compose: status %d, body %s", cold.StatusCode, coldBody)
	}
	if got := cold.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("cold X-Cache = %q, want miss", got)
	}
	if got := cold.Header.Get("X-Scenario"); got != "compose" {
		t.Errorf("X-Scenario = %q, want compose", got)
	}
	if !bytes.Contains(coldBody, []byte("# phase 0: halo")) ||
		!bytes.Contains(coldBody, []byte("# phase 1: fetchadd")) {
		t.Fatalf("artifact missing phase separators:\n%s", coldBody)
	}

	hot, hotBody := postCompose(t, ts, fastCompose)
	if hot.Header.Get("X-Cache") != "hit" {
		t.Errorf("cached X-Cache = %q, want hit", hot.Header.Get("X-Cache"))
	}
	if !bytes.Equal(coldBody, hotBody) {
		t.Error("cached compose differs from cold")
	}

	// Same spec, different spelling: defaults spelled out, fields
	// reordered. Canonicalization must collapse it onto the same key.
	respelled := `{"format":"csv","compose":{"version":1,"phases":[
		{"engine":{"mode":"async"},"topology":{"per_node":2},
		 "params":{"iters":2,"tile_n":8,"tiles_y":1,"tiles_x":2},"pattern":"halo"},
		{"pattern":"fetchadd","params":{"compute":false,"ops_each":2},
		 "topology":{"procs":[4],"per_node":4},"engine":{"mode":"default"},
		 "fault":{"seed":7,"events":[{"kind":"link_down","link":-1,"start_us":30050,"dur_us":100}]}}
	]}}`
	alias, aliasBody := postCompose(t, ts, respelled)
	if alias.Header.Get("X-Cache") != "hit" {
		t.Errorf("respelled spec X-Cache = %q, want hit", alias.Header.Get("X-Cache"))
	}
	if alias.Header.Get("X-Config-Hash") != cold.Header.Get("X-Config-Hash") {
		t.Error("respelled spec hashed to a different key")
	}
	if !bytes.Equal(coldBody, aliasBody) {
		t.Error("respelled spec returned different bytes")
	}
}

// ?async=1 switches compose to submit semantics: 202 + run record, SSE
// replay reassembles the same bytes the sync path serves.
func TestComposeAsyncStreams(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	resp, err := http.Post(ts.URL+"/v1/compose?async=1", "application/json",
		strings.NewReader(fastCompose))
	if err != nil {
		t.Fatal(err)
	}
	var info RunInfo
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || info.ID == "" {
		t.Fatalf("async compose: status %d, info %+v", resp.StatusCode, info)
	}
	if info.Scenario != "compose" {
		t.Errorf("run scenario = %q, want compose", info.Scenario)
	}

	_, evs := readSSE(t, ts.URL+"/v1/runs/"+info.ID+"/events")
	artifact := resultBytes(t, evs)
	if last := evs[len(evs)-1]; last.name != "done" {
		t.Fatalf("stream ended with %+v, want done", last)
	}

	sync, syncBody := postCompose(t, ts, fastCompose)
	if sync.Header.Get("X-Cache") != "hit" {
		t.Errorf("sync after async: X-Cache = %q, want hit", sync.Header.Get("X-Cache"))
	}
	if !bytes.Equal(artifact, syncBody) {
		t.Fatal("streamed artifact differs from synchronous compose response")
	}
}

// Malformed compose specs answer 400 with the structured
// {error, field, hint} envelope naming the offending field.
func TestComposeStructuredErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name, body, field string
	}{
		{"unknown pattern",
			`{"compose":{"phases":[{"pattern":"warp"}]}}`,
			"compose.phases[0].pattern"},
		{"unknown param",
			`{"compose":{"phases":[{"pattern":"ping","params":{"width":3}}]}}`,
			"compose.phases[0].params.width"},
		{"out-of-bounds axis",
			`{"compose":{"phases":[{"pattern":"worksteal","topology":{"procs":[100000]}}]}}`,
			"compose.phases[0].topology.procs"},
		{"bad fault window",
			`{"compose":{"phases":[{"pattern":"ping","fault":{"events":[{"kind":"link_down","start_us":5,"dur_us":0}]}}]}}`,
			"compose.phases[0].fault.events[0].dur_us"},
		{"unused axis",
			`{"compose":{"phases":[{"pattern":"halo","sizes":{"kind":"fixed","bytes":64}}]}}`,
			"compose.phases[0].sizes"},
		{"no phases", `{"compose":{"phases":[]}}`, "compose.phases"},
		{"unknown envelope field", `{"compose":{"phases":[{"pattern":"ping"}]},"bogus":1}`, ""},
		{"unknown format", `{"compose":{"phases":[{"pattern":"ping"}]},"format":"xml"}`, ""},
		{"not json", `pattern=ping`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postCompose(t, ts, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", resp.StatusCode, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("error Content-Type = %q", ct)
			}
			var e struct {
				Error string `json:"error"`
				Field string `json:"field"`
				Hint  string `json:"hint"`
			}
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("error body not JSON: %v\n%s", err, body)
			}
			if e.Error == "" {
				t.Error("error envelope has no message")
			}
			if e.Field != tc.field {
				t.Errorf("field = %q, want %q", e.Field, tc.field)
			}
			if tc.field != "" && e.Hint == "" {
				t.Error("validation error has no hint")
			}
		})
	}
}

// Legacy scenario validation errors carry the same envelope, with the
// params-relative field locator.
func TestRunStructuredErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, body := post(t, ts, `{"scenario":"amo","params":{"procs":[100000]}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
		Field string `json:"field"`
		Hint  string `json:"hint"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body not JSON: %v\n%s", err, body)
	}
	if e.Field != "params.procs" || e.Hint == "" || e.Error == "" {
		t.Errorf("error envelope %+v, want field params.procs with hint", e)
	}
}

// The job API exists only under /v1: the unversioned spellings it once
// answered to are 404 for every method, while the infrastructure probes
// (/healthz, /metrics) stay where load balancers and scrapers expect them.
func TestUnversionedRoutesGone(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	info := submitAsync(t, ts, fastJob)

	for _, rt := range []struct{ method, path string }{
		{"POST", "/run"},
		{"GET", "/scenarios"},
		{"POST", "/runs"},
		{"GET", "/runs"},
		{"GET", "/runs/" + info.ID},
		{"GET", "/runs/" + info.ID + "/events"},
		{"POST", "/compose"},
	} {
		req, _ := http.NewRequest(rt.method, ts.URL+rt.path, strings.NewReader(fastJob))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", rt.method, rt.path, resp.StatusCode)
		}
	}
	for _, path := range []string{"/healthz", "/metrics", "/v1/scenarios", "/v1/runs/" + info.ID} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
	}
}

// GET /v1/scenarios is the self-describing catalog: every named scenario
// with its parameter schema and defaults, every composition pattern with
// its schema and axes.
func TestScenariosCatalog(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []struct {
		Name   string `json:"name"`
		Kind   string `json:"kind"`
		Doc    string `json:"doc"`
		Params []struct {
			Name    string `json:"name"`
			Type    string `json:"type"`
			Doc     string `json:"doc"`
			Default any    `json:"default"`
		} `json:"params"`
		Defaults map[string]any  `json:"defaults"`
		Axes     map[string]bool `json:"axes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decode: %v", err)
	}
	byName := map[string]int{}
	for i, e := range list {
		byName[e.Name] = i
		if e.Doc == "" {
			t.Errorf("%s has no doc", e.Name)
		}
		if e.Kind != "scenario" && e.Kind != "pattern" {
			t.Errorf("%s kind = %q", e.Name, e.Kind)
		}
		if e.Params == nil {
			t.Errorf("%s has no params array", e.Name)
		}
		for _, p := range e.Params {
			if p.Name == "" || p.Type == "" || p.Doc == "" {
				t.Errorf("%s param %+v incomplete", e.Name, p)
			}
		}
	}
	for _, name := range []string{"micro", "amo", "fig9", "chaos", "scf", "tableii"} {
		i, ok := byName[name]
		if !ok {
			t.Errorf("scenario %s missing from catalog", name)
			continue
		}
		if list[i].Kind != "scenario" || list[i].Defaults == nil {
			t.Errorf("scenario %s: kind %q defaults %v", name, list[i].Kind, list[i].Defaults)
		}
	}
	for _, name := range []string{"ping", "fetchadd", "halo", "worksteal", "dgemm"} {
		i, ok := byName[name]
		if !ok {
			t.Errorf("pattern %s missing from catalog", name)
			continue
		}
		if list[i].Kind != "pattern" || list[i].Axes == nil {
			t.Errorf("pattern %s: kind %q axes %v", name, list[i].Kind, list[i].Axes)
		}
	}
	if i := byName["fetchadd"]; !list[i].Axes["procs"] || !list[i].Axes["fault"] || list[i].Axes["sizes"] {
		t.Errorf("fetchadd axes wrong: %v", list[i].Axes)
	}
}

// A wire-valid job whose simulation panics (here: a node dead for the
// whole run, so a get exhausts its retry budget) must cost its caller a
// 500 and nothing else — also when the job's sweep fans across more than
// one worker, where the panic is raised on a sweep goroutine and has to
// be carried back to the job's own recover.
func TestPanickingJobOnParallelSweepIsA500(t *testing.T) {
	const doomed = `{"compose":{"phases":[{"pattern":"ping","engine":{"mode":"both"},
		"fault":{"seed":7,"events":[{"kind":"node_down","node":1,"start_us":0,"dur_us":900000}]}}]}}`
	s, ts := newTestServer(t, Options{Workers: 1, SweepWorkers: 2})

	resp, body := postCompose(t, ts, doomed)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("doomed compose: status %d, want 500; body %s", resp.StatusCode, body)
	}
	var e apiError
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "panicked") {
		t.Errorf("doomed compose: body %s, want a structured {error} naming the panic (%v)", body, err)
	}
	if panicked := atomic.LoadUint64(&s.panicked); panicked != 1 {
		t.Errorf("serve/jobs.panicked = %d, want 1", panicked)
	}

	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz after the panic: %v", err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Errorf("/healthz after the panic: status %d", health.StatusCode)
	}
	if next, nextBody := postCompose(t, ts, fastCompose); next.StatusCode != http.StatusOK {
		t.Errorf("job after the panic: status %d, body %s", next.StatusCode, nextBody)
	}
}
