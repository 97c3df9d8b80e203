package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/serve"
)

// drive runs the whole program in-process and returns what a shell
// would see.
func drive(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

const testSpec = `{"phases":[
	{"pattern":"halo","params":{"tiles_x":2,"tiles_y":1,"tile_n":8,"iters":3},
	 "topology":{"per_node":2},"engine":{"mode":"async"}},
	{"pattern":"fetchadd","params":{"ops_each":3},
	 "topology":{"procs":[4],"per_node":4},"engine":{"mode":"default"}}
]}`

// TestSubcommands drives every subcommand at reduced size: exit 0,
// nothing on stderr, and the output each is for on stdout. `report` has
// no reduced size; TestReport drives it at the quick scale.
func TestSubcommands(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(spec, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	envelope := filepath.Join(t.TempDir(), "request.json")
	if err := os.WriteFile(envelope, []byte(`{"compose":`+testSpec+`,"format":"csv"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	type testCase struct {
		args []string
		want []string // regexps stdout must match
		slow bool     // skipped under -short (minutes under -race)
	}
	// Every checked-in example spec runs, so none can rot: the first phase
	// header names the pattern the file is named for.
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.json"))
	if err != nil || len(examples) < 4 {
		t.Fatalf("examples/*.json: %v (found %d)", err, len(examples))
	}
	var cases []testCase
	for _, path := range examples {
		pattern, _, _ := strings.Cut(strings.TrimSuffix(filepath.Base(path), ".json"), "_")
		cases = append(cases, testCase{args: []string{"compose", path, "-csv"},
			want: []string{`(?m)^# phase 0: ` + pattern + `$`}})
	}
	for _, tc := range append(cases, []testCase{
		{args: []string{"fig", "-quick"}, want: []string{`Fig 3:`, `Fig 4:`, `Fig 5:`, `Fig 6:`, `Fig 7:`, `Fig 8:`, `Fig 9:`,
			`Eq 7/8`, `SIII\.D`, `SIII\.E`, `SIII\.C\.2`, `SII\.A`, `SIV\.B\.3`}},
		{args: []string{"fig", "5", "-quick", "-csv"}, want: []string{`(?m)^bytes,ns_per_byte$`}},
		{args: []string{"fig", "-csv", "-quick", "hw"}, want: []string{`(?m)^procs,AT_software_us,hw_amo_us$`}},
		{args: []string{"chaos", "-quick", "-seed", "7"}, want: []string{`seed 7`, `(?m)^\s*16\s.*\byes\b`}},
		{args: []string{"compose", spec, "-csv"}, want: []string{`halo`, `fetchadd`}},
		{args: []string{"compose", "-csv", envelope}, want: []string{`halo`, `fetchadd`}},
		{args: []string{"scf", "-procs", "8,16", "-iters", "1", "-csv"}, slow: true, // 14 706 tasks per cycle
			want: []string{`(?m)^procs,D_ms,AT_ms,`, `(?m)^16\.00,`}},
		{args: []string{"tables"}, want: []string{`Table II`, `4096 procs: `}},
		{args: []string{"tables", "-csv"}, want: []string{`(?m)^attribute,symbol,measured,paper$`}},
		{args: []string{"torus", "-procs", "64", "-route", "37"}, want: []string{`partition: `, `route rank 0 .* -> rank 37`}},
	}...) {
		if tc.slow && testing.Short() {
			continue
		}
		code, stdout, stderr := drive(t, tc.args...)
		if code != 0 || stderr != "" {
			t.Errorf("%v: exit %d, stderr %q", tc.args, code, stderr)
			continue
		}
		for _, re := range tc.want {
			if !regexp.MustCompile(re).MatchString(stdout) {
				t.Errorf("%v: stdout does not match %q:\n%s", tc.args, re, stdout)
			}
		}
		if strings.Contains(stdout, "FAIL") {
			t.Errorf("%v: a check failed:\n%s", tc.args, stdout)
		}
	}
}

// TestTorusTable pins `torus -procs 2048` byte for byte. Its latency column
// is computed from network.Params; at the defaults the base is the 2878 ns
// of a 16 B get to an adjacent node.
func TestTorusTable(t *testing.T) {
	const want = `partition: 2x2x4x4x2 (c=16, 2048 procs)
dimensions ABCDE: [2 2 4 4 2], diameter 7 hops

hops  nodes  est. get latency (16B)
   0      1  2.88 us  #
   1      7  2.88 us  ###
   2     21  2.95 us  #######
   3     35  3.02 us  ###########
   4     35  3.09 us  ###########
   5     21  3.16 us  #######
   6      7  3.23 us  ###
   7      1  3.30 us  #
`
	if code, stdout, stderr := drive(t, "torus", "-procs", "2048"); code != 0 || stderr != "" || stdout != want {
		t.Errorf("exit %d, stderr %q, stdout\n%s\nwant\n%s", code, stderr, stdout, want)
	}
}

// TestReport drives `report` on the quick-scale run set with one claim
// added that cannot pass: that row is the one failure, and the exit is 1.
// What it prints at the paper's scale is results/report.md, which root
// TestResultsFresh holds to the tree.
func TestReport(t *testing.T) {
	if testing.Short() {
		t.Skip("root TestPaperClaims/quick judges the quick scale")
	}
	defer func(claims []bench.Claim) { bench.Claims = claims }(bench.Claims)
	bench.Claims = append(slices.Clip(bench.Claims), bench.Claim{Fig: "test", What: "an empty band",
		Band: [2]float64{1, 0}, Measure: func(*bench.RunSet) float64 { return 0 }})
	var out, errb bytes.Buffer
	code := report(bench.Quick, []string{"-parallel", "1"}, &out, &errb)
	verdict := regexp.MustCompile(`(?m)^\| test: an empty band \|.*\*\*FAIL\*\* \|$[\s\S]*^\d+ claims: \d+ pass, 1 fail; known deviations: 0$`)
	if code != 1 || errb.Len() != 0 || !verdict.Match(out.Bytes()) {
		t.Errorf("exit %d, stderr %q, stdout\n%s\nwant exit 1 and the added row as the one failure", code, &errb, &out)
	}
}

// linkdownSpec is the composed example the serving tests also run: a
// halo exchange, then fetch-and-add under a link_down plan.
var linkdownSpec = filepath.Join("..", "..", "examples", "halo_fetchadd_linkdown.json")

// TestExecutionPlanNeverChangesBytes is the CLI face of the determinism
// contract: -parallel and -shards pick how a run executes, never what
// it prints — and what `compose -csv` prints is, byte for byte, what a
// simd serves for the same spec. GOMAXPROCS is raised to 4 for the
// duration so sweep.CoreBudget grants four lane workers on any host.
func TestExecutionPlanNeverChangesBytes(t *testing.T) {
	if old := runtime.GOMAXPROCS(0); old < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(old)
	}
	for _, base := range [][]string{
		{"fig", "9", "-quick", "-csv"},
		{"chaos", "-quick"},
		{"compose", linkdownSpec, "-csv"},
	} {
		with := func(extra ...string) string {
			args := append(append([]string{}, base...), extra...)
			code, stdout, stderr := drive(t, args...)
			if code != 0 || stdout == "" {
				t.Fatalf("%v: exit %d, stderr %q", args, code, stderr)
			}
			return stdout
		}
		serial := with("-parallel", "1")
		for _, plan := range [][]string{
			{"-parallel", "4"}, {"-parallel", "1", "-shards", "1"}, {"-parallel", "1", "-shards", "4"},
			{"-parallel", "4", "-shards", "4"},
		} {
			if got := with(plan...); got != serial {
				t.Errorf("%v %v prints different bytes than -parallel 1:\n%s\nvs\n%s", base, plan, got, serial)
			}
		}
	}

	// The offline render is the served one.
	_, offline, _ := drive(t, "compose", linkdownSpec, "-csv", "-parallel", "4", "-shards", "4")
	spec, err := os.ReadFile(linkdownSpec)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Options{})
	defer srv.Close()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/compose",
		strings.NewReader(`{"compose":`+string(spec)+`}`)))
	if rec.Code != 200 || rec.Body.String() != offline {
		t.Errorf("POST /v1/compose serves (status %d)\n%s\n`compose -csv` prints\n%s", rec.Code, rec.Body, offline)
	}
}

// TestObsCapture: -trace/-metrics write a Perfetto-loadable trace and a
// Prometheus text exposition, byte-identical from run to run and across
// plans; -metrics alone, which records no span, writes the same metrics.
func TestObsCapture(t *testing.T) {
	capture := func(extra ...string) (trace, metrics []byte) {
		dir := t.TempDir()
		tp, mp := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.txt")
		args := append([]string{"fig", "5", "-quick", "-trace", tp, "-metrics", mp}, extra...)
		if code, _, stderr := drive(t, args...); code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", args, code, stderr)
		}
		trace, err := os.ReadFile(tp)
		if err != nil {
			t.Fatal(err)
		}
		metrics, err = os.ReadFile(mp)
		if err != nil {
			t.Fatal(err)
		}
		return trace, metrics
	}
	t1, m1 := capture()
	if !json.Valid(t1) || !bytes.HasPrefix(m1, []byte("# TYPE ")) {
		t.Fatalf("trace valid JSON: %v; metrics start %.40q", json.Valid(t1), m1)
	}
	t2, m2 := capture("-parallel", "1", "-shards", "2")
	if !bytes.Equal(t1, t2) || !bytes.Equal(m1, m2) {
		t.Error("obs capture differs between runs")
	}
	for _, cmd := range [][]string{{"fig", "5", "-quick"}, {"chaos", "-quick", "-shards", "3"}} {
		withTrace := filepath.Join(t.TempDir(), "m.txt")
		alone := filepath.Join(t.TempDir(), "m.txt")
		for _, args := range [][]string{
			append(slices.Clone(cmd), "-metrics", withTrace, "-trace", filepath.Join(t.TempDir(), "t.json")),
			append(slices.Clone(cmd), "-metrics", alone),
		} {
			if code, _, stderr := drive(t, args...); code != 0 {
				t.Fatalf("%v: exit %d, stderr %q", args, code, stderr)
			}
		}
		a, errA := os.ReadFile(withTrace)
		b, errB := os.ReadFile(alone)
		if errA != nil || errB != nil || len(a) == 0 || !bytes.Equal(a, b) {
			t.Errorf("%v: -metrics alone wrote %d bytes, with -trace %d (%v, %v); want the same bytes",
				cmd, len(b), len(a), errA, errB)
		}
	}
	if code, _, stderr := drive(t, "chaos", "-quick", "-metrics", filepath.Join(t.TempDir(), "no", "such", "dir")); code != 1 || stderr == "" {
		t.Errorf("unwritable -metrics path: exit %d, stderr %q, want 1 and a message", code, stderr)
	}
}

// TestObsPinned: the -metrics and -trace files of three runs keep their
// sha256, so a change to how a layer exports its series or to the
// exporters cannot move an exported byte unseen. A 3-shard chaos run
// writes the same bytes as a serial one; GOMAXPROCS is raised to 3 for
// the duration so sweep.CoreBudget grants three lane workers on any host.
func TestObsPinned(t *testing.T) {
	if old := runtime.GOMAXPROCS(0); old < 3 {
		runtime.GOMAXPROCS(3)
		defer runtime.GOMAXPROCS(old)
	}
	for _, pin := range []struct {
		args           []string
		metrics, trace string
	}{
		{[]string{"fig", "9", "-quick"},
			"035d9e42d6ce82579a268d94da75cddee48add4cd8f05e6fe1f9114dcd7a7e8c",
			"df89866fd217723e8da195ea3fd72da9251425dfbfc06c2304989ae342302936"},
		{[]string{"chaos", "-quick"},
			"8083a84be24ed7a26c19ecb5aac559a97c3f6ca9f55cd6b42d264c17607e6f23",
			"55893f402be9d2b8c18082bc90631a72eb87c57a2f503f0471529f4fe29446a4"},
		{[]string{"chaos", "-quick", "-shards", "3"},
			"8083a84be24ed7a26c19ecb5aac559a97c3f6ca9f55cd6b42d264c17607e6f23",
			"55893f402be9d2b8c18082bc90631a72eb87c57a2f503f0471529f4fe29446a4"},
		{[]string{"compose", filepath.Join("..", "..", "examples", "halo.json")},
			"597c243de13d78c3a040ea5572f46fd1c93fb834d7bb96270f63086e1bd19f9e",
			"205a435ed9af86f443a97537e94cfd17e7f46fe3d948d3a9c2ceeb012b34b11d"},
	} {
		dir := t.TempDir()
		mp, tp := filepath.Join(dir, "m.txt"), filepath.Join(dir, "t.json")
		args := append(slices.Clone(pin.args), "-metrics", mp, "-trace", tp)
		if code, _, stderr := drive(t, args...); code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", args, code, stderr)
		}
		for _, f := range []struct{ path, want string }{{mp, pin.metrics}, {tp, pin.trace}} {
			b, err := os.ReadFile(f.path)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != f.want {
				t.Errorf("%v: %s has sha256 %s, want %s", pin.args, filepath.Base(f.path), got, f.want)
			}
		}
	}
}

// TestBadUsage: a bad command line exits 2 with a message and prints
// nothing on stdout — in particular the deleted engine selector
// `-shards -1` and the deleted lane knobs are errors, not modes.
func TestBadUsage(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"bogus"},
		{"-fig", "9"},
		{"fig", "99"},
		{"fig", "3", "4"},
		{"fig", "-shards", "-1"},
		{"chaos", "-shards", "-1"},
		{"report", "-shards", "-1"},
		{"scf", "-shards", "-1"},
		{"compose", "-", "-shards", "-1"},
		{"fig", "-parallel", "-2"},
		{"fig", "-lane-group", "4"},
		{"fig", "-serial-boundary"},
		{"chaos", "-seed", "x"},
		{"compose"},
		{"scf", "-procs", "8,x"},
		{"scf", "-procs", "1"},
		{"tables", "-nope"},
		{"torus", "-procs", "0"},
	} {
		code, stdout, stderr := drive(t, args...)
		if code != 2 || stdout != "" || stderr == "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2, a message, no output",
				args, code, stdout, stderr)
		}
	}
	if code, _, stderr := drive(t, "compose", filepath.Join(t.TempDir(), "missing.json")); code != 1 || stderr == "" {
		t.Errorf("missing spec file: exit %d, stderr %q, want 1 and a message", code, stderr)
	}
}
