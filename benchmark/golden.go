package main

import (
	"encoding/json"
	"os"
)

const goldenPath = "benchmark/golden/seed1.json"

// checkGolden compares the workload's output digest with the one pinned
// for seed 1 at full size; other seeds and the test's reduced sizes are
// held to self-consistency only. With -update-golden it rewrites the
// workload's entry instead.
func checkGolden(e *env, o *outcome, digest string) {
	if e.seed != 1 || e.short {
		return
	}
	pinned := make(map[string]string)
	data, err := os.ReadFile(goldenPath)
	if err == nil {
		err = json.Unmarshal(data, &pinned)
	}
	o.attempted++
	if err != nil {
		o.fail("golden: %v", err)
		return
	}
	if e.updateGolden {
		pinned[e.workload] = digest
		out, _ := json.MarshalIndent(pinned, "", "  ") // a map of strings always marshals
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			o.fail("golden: %v", err)
		}
		return
	}
	if want, ok := pinned[e.workload]; !ok {
		o.fail("golden: no entry for %s in %s (run with -update-golden)", e.workload, goldenPath)
	} else if want != digest {
		o.fail("golden: output sha256 %s, pinned %s", digest, want)
	}
}
