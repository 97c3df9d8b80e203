package repro

import (
	"bytes"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The prose names files, packages and tests, and nothing else holds it to
// the tree: a package deleted five PRs ago stayed in the module map. This
// test reads what README.md, DESIGN.md and EXPERIMENTS.md put in code
// spans and fenced blocks and requires that every `internal/…` or `cmd/…`
// path is a file or directory and every Test/Fuzz/Benchmark name is a
// function some package declares (a name followed by `*` is a prefix).
// CHANGES.md, ISSUE.md and ROADMAP.md are history and plans, and exempt.

var (
	docCode = regexp.MustCompile("(?s)```.*?```|`[^`\n]+`")
	docPath = regexp.MustCompile(`\b(?:internal|cmd)/[\w./-]*\w`)
	docFunc = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*\*?`)
)

// declaredTests returns the name of every top-level Test, Fuzz and
// Benchmark function in the module.
func declaredTests(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && docFunc.MatchString(fn.Name.Name) {
				names[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func TestDocsNameRealThings(t *testing.T) {
	tests := declaredTests(t)
	hasPrefix := func(prefix string) bool {
		for name := range tests {
			if strings.HasPrefix(name, prefix) {
				return true
			}
		}
		return false
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		reported := map[string]bool{}
		for _, code := range docCode.FindAllString(string(text), -1) {
			for _, p := range docPath.FindAllString(code, -1) {
				if _, err := os.Stat(p); err != nil && !reported[p] {
					reported[p] = true
					t.Errorf("%s names %s, which is not in the tree", doc, p)
				}
			}
			for _, name := range docFunc.FindAllString(code, -1) {
				prefix, wild := strings.CutSuffix(name, "*")
				if !tests[prefix] && !(wild && hasPrefix(prefix)) && !reported[name] {
					reported[name] = true
					t.Errorf("%s names %s, which no package declares", doc, name)
				}
			}
		}
	}
}

// docCeilings is a ratchet on the prose every reader starts from: a doc
// may shrink below its ceiling, not grow past it. Lower a ceiling when a
// doc shrinks; raising one means editing it here beside a one-line reason.
var docCeilings = map[string]int64{
	"README.md":      14396, // its size once the claims test judged both scales
	"DESIGN.md":      90790, // its size once the lane's two shortcut rules for progress threads became one
	"EXPERIMENTS.md": 37473, // its size once the per-PR performance sections became one table
	"CHANGES.md":     10506, // its size once older entries shrank and the shelf entry and two findings were added
}

func TestDocsByteBudget(t *testing.T) {
	for doc, ceiling := range docCeilings {
		fi, err := os.Stat(doc)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > ceiling {
			t.Errorf("%s is %d bytes, over its ceiling of %d: shrink it, or raise the ceiling in docCeilings with a one-line reason",
				doc, fi.Size(), ceiling)
		}
	}
}

// TestGofmt: formatting is a gate like any other, so it is a Go test —
// every .go file in the tree is what go/format makes of it.
func TestGofmt(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return fs.SkipDir // .git, the driver's .bench_build
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if want, err := format.Source(src); err != nil {
			t.Errorf("%s: %v", path, err)
		} else if !bytes.Equal(want, src) {
			t.Errorf("%s is not gofmt-formatted (gofmt -d %s)", path, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
