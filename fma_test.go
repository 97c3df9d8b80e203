package repro

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fmaFree lists the symbols (go tool objdump -s patterns) held to
// explicit rounding: every symbol of this module — its repro/ packages
// and each binary's main — with no exception. A product reaches a
// simulated time, an artifact byte or a rendered number from most
// packages, and a rule with no exceptions needs no list of reasons.
var fmaFree = []string{`^repro/`, `^main\.`}

// fmaPorts are the 64-bit ports whose compiler fuses x*y + z, each with
// the mnemonics go tool objdump prints for a fused multiply-add or
// -subtract. amd64 never fuses, so it is not among them.
var fmaPorts = []struct {
	goarch string
	fused  *regexp.Regexp
}{
	{"arm64", regexp.MustCompile(`\tFN?M(?:ADD|SUB)[DS]\s`)},
	{"ppc64le", regexp.MustCompile(`\tFN?M(?:ADD|SUB)S?\s`)},
	{"s390x", regexp.MustCompile(`\tM(?:A|S)[DE]BR?\s`)},
	{"riscv64", regexp.MustCompile(`\tFN?M(?:ADD|SUB)[DS]\s`)},
}

// fmaBinaries are the programs a replica or an operator runs.
var fmaBinaries = []string{"armci-bench", "simd", "obs-report"}

// TestNoFusedMultiplyAdd is the static gate on "same bytes on any host":
// the Go spec lets a compiler fuse x*y + z unless an explicit conversion
// rounds the product, amd64 never fuses and the other 64-bit ports do, so
// a replica on one of them could serve other bytes under the same config
// hash. The test cross-builds every binary for every fusing port
// (offline: the standard library builds from GOROOT) and fails on a fused
// instruction in fmaFree's symbols. There is no emulator here, so the gate
// reads the instructions instead of running them; and a port whose
// pattern matches nothing in its own runtime and math code has a stale
// pattern, which would pass anything, so that fails too.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-builds every binary for four ports")
	}
	held := make([]*regexp.Regexp, len(fmaFree))
	for i, pat := range fmaFree {
		held[i] = regexp.MustCompile(pat)
	}
	// The held symbols, and the runtime and math code the pattern is
	// checked against.
	syms := strings.Join(append(fmaFree[:len(fmaFree):len(fmaFree)], `^runtime\.`, `^math\.`), "|")
	for _, port := range fmaPorts {
		dir := t.TempDir()
		args := []string{"build", "-o", dir + string(filepath.Separator)}
		for _, b := range fmaBinaries {
			args = append(args, "./cmd/"+b)
		}
		build := exec.Command("go", args...)
		build.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+port.goarch, "CGO_ENABLED=0")
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("GOARCH=%s go build: %v\n%s", port.goarch, err, out)
		}
		named := make([]bool, len(held))
		for _, b := range fmaBinaries {
			out, err := exec.Command("go", "tool", "objdump", "-s", syms, filepath.Join(dir, b)).Output()
			if err != nil {
				t.Fatalf("%s/%s: go tool objdump: %v", port.goarch, b, err)
			}
			own := 0
			var sym string
			inHeld := false
			for _, line := range strings.Split(string(out), "\n") {
				if rest, ok := strings.CutPrefix(line, "TEXT "); ok {
					sym, inHeld = rest, false
					for i, re := range held {
						if re.MatchString(sym) {
							inHeld, named[i] = true, true
						}
					}
					continue
				}
				if !port.fused.MatchString(line) {
					continue
				}
				if inHeld {
					t.Errorf("%s/%s: fused multiply-add in %s: %s", port.goarch, b, sym, strings.TrimSpace(line))
				} else {
					own++
				}
			}
			if own == 0 {
				t.Errorf("%s/%s: the pattern %s matches nothing in runtime or math; it is stale", port.goarch, b, port.fused)
			}
		}
		for i, pat := range fmaFree {
			if !named[i] {
				t.Errorf("%s: %s names no symbol of any binary; the list is stale", port.goarch, pat)
			}
		}
	}
}
