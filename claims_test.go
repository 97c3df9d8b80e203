package repro

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/bench"
)

// The claims and the results check read one run set per scale, so each
// figure is simulated once per test binary however many of them read it.
var (
	paperRuns = bench.NewRunSet(bg, benchEng, bench.Paper)
	quickRuns = bench.NewRunSet(bg, benchEng, bench.Quick)
)

// TestPaperClaims is the reproduction's audit: every row of bench.Claims,
// one subtest each, at quick scale under -short and at the paper's scale
// otherwise (about half a minute on two cores, most of it Fig 11). A row
// fails outside its band; a row marked as a known deviation fails inside
// it.
func TestPaperClaims(t *testing.T) {
	r := paperRuns
	if testing.Short() {
		r = quickRuns
	}
	for _, v := range bench.Evaluate(r) {
		t.Run(v.ID, func(t *testing.T) {
			if !v.OK() {
				t.Errorf("%s scale: %s", r.Scale.Name, strings.Join(v.Cells(), " | "))
			}
		})
	}
}

// TestResultsFresh holds every generated file committed under results/ to
// what the tree prints: a change that moves a number fails here until its
// make target has regenerated the file.
func TestResultsFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("paper scale")
	}
	r := paperRuns
	files := []struct {
		path, target string
		write        func(w io.Writer)
	}{
		{"results/tables.txt", "make figures", func(w io.Writer) {
			r.Grid("ii").Render(w)
			bench.Partitions(w)
		}},
		{"results/microbench.txt", "make figures", func(w io.Writer) {
			for _, name := range bench.Figures {
				r.Grid(name).Render(w)
			}
		}},
		{"results/fig11.txt", "make scf", func(w io.Writer) { r.Grid("11").Render(w) }},
		{"results/report.md", "make report", func(w io.Writer) { bench.WriteReport(w, r) }},
	}
	for _, f := range files {
		got, err := os.ReadFile(f.path)
		if err != nil {
			t.Errorf("%v: `%s` writes it", err, f.target)
			continue
		}
		var want bytes.Buffer
		f.write(&want)
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s is stale: `%s` regenerates it", f.path, f.target)
		}
	}
}
