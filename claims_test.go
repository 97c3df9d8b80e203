package repro

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
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
// judged once per scale, one subtest each. The quick scale always runs, as
// quick/<id>; the paper's scale runs without -short (about half a minute
// on two cores, most of it Fig 11) and keeps the bare <id>. A row fails
// outside its band; a row marked as a known deviation fails inside it.
func TestPaperClaims(t *testing.T) {
	judge := func(t *testing.T, r *bench.RunSet) {
		for _, v := range bench.Evaluate(r) {
			t.Run(v.ID, func(t *testing.T) {
				if !v.OK() {
					t.Errorf("%s scale: %s", r.Scale.Name, strings.Join(v.Cells(), " | "))
				}
			})
		}
	}
	t.Run("quick", func(t *testing.T) { judge(t, quickRuns) })
	if !testing.Short() {
		judge(t, paperRuns)
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
			t.Errorf("%s is stale at %s: `%s` regenerates it", f.path, firstDiff(got, want.Bytes()), f.target)
		}
	}
}

// firstDiff names the first line where a committed file and what the
// tree prints part, quoting both sides; a side that has ended reads as
// "(end of file)".
func firstDiff(committed, printed []byte) string {
	a := strings.SplitAfter(string(committed), "\n")
	b := strings.SplitAfter(string(printed), "\n")
	line := func(l []string, i int) string {
		if i < len(l) && l[i] != "" {
			return strconv.Quote(l[i])
		}
		return "(end of file)"
	}
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return fmt.Sprintf("line %d: committed %s, tree prints %s", i+1, line(a, i), line(b, i))
}

func TestFirstDiffNamesTheLine(t *testing.T) {
	for _, tc := range []struct{ committed, printed, want string }{
		{"a\nb\nc\n", "a\nB\nc\n", `line 2: committed "b\n", tree prints "B\n"`},
		{"a\n", "a\nb\n", `line 2: committed (end of file), tree prints "b\n"`},
		{"a\nb", "a\nb\n", `line 2: committed "b", tree prints "b\n"`},
	} {
		if got := firstDiff([]byte(tc.committed), []byte(tc.printed)); got != tc.want {
			t.Errorf("firstDiff(%q, %q) = %s, want %s", tc.committed, tc.printed, got, tc.want)
		}
	}
}
