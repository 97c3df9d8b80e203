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
// explicit rounding: every repro/ symbol, with no exception. A product
// reaches a simulated time, an artifact byte or a rendered number from
// most packages, and a rule with no exceptions needs no list of reasons.
var fmaFree = []string{`^repro/`}

// fusedOp is an arm64 fused multiply-add or -subtract, in either width.
var fusedOp = regexp.MustCompile(`\tFN?M(?:ADD|SUB)[DS]\s`)

// TestNoFusedMultiplyAdd is the static gate on "same bytes on any host":
// the Go spec lets a compiler fuse x*y + z unless an explicit conversion
// rounds the product, amd64 never fuses and arm64 does, so an arm64
// replica could serve other bytes under the same config hash. The test
// cross-builds armci-bench for arm64 (offline: the standard library builds
// from GOROOT) and fails on any FMADD/FMSUB/FNMADD/FNMSUB in fmaFree's
// symbols. There is no arm64 emulator here, so the gate reads the
// instructions instead of running them.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-builds armci-bench for arm64")
	}
	bin := filepath.Join(t.TempDir(), "armci-bench")
	build := exec.Command("go", "build", "-o", bin, "./cmd/armci-bench")
	build.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("GOARCH=arm64 go build: %v\n%s", err, out)
	}
	for _, sym := range fmaFree {
		out, err := exec.Command("go", "tool", "objdump", "-s", sym, bin).Output()
		if err != nil {
			t.Fatalf("go tool objdump -s %s: %v", sym, err)
		}
		if !strings.Contains(string(out), "TEXT ") {
			t.Errorf("%s names no symbol of the arm64 build; the list is stale", sym)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if fusedOp.MatchString(line) {
				t.Errorf("%s: fused multiply-add: %s", sym, strings.TrimSpace(line))
			}
		}
	}
}
