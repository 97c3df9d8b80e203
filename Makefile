# Reproduction harness shortcuts. Everything is plain `go` underneath.

GO ?= go

.PHONY: all test test-short vet check bench bench-shards race-sweep race-shards fuzz-smoke figures report scf clean

all: vet test

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Short mode skips the multi-minute paper-scale integration runs.
test-short:
	$(GO) test -short ./...

# CI gate: vet plus the short suite under the race detector (the fault
# package rides along in ./...; listed explicitly so a package-selection
# change can't silently drop it from the -race run). vet is also what
# keeps slab-resident state (sim.NoCopy) from being copied. The suite
# includes the serving gates: ./cmd/simd starts real simd processes, race
# detector and all — load then SIGTERM, the 3-replica kill drill, the
# restart over a survivor's store — and none of them skips under -short.
# The zero-allocation invariants skip under -race (its instrumentation
# allocates), so the last line runs them, the objects- and
# switches-per-rank budgets, the event-size pin and simd's hit-path
# allocation budget (internal/serve: parse memo + LRU hit, parse memo +
# verified disk load) on plain counts, -v so the CI log shows what was
# measured.
check:
	$(GO) vet ./...
	$(GO) test -short -race ./internal/fault/ ./...
	$(GO) test -v -run 'Alloc|ObjectsPerRank|SwitchesPerRank|EventSize' ./internal/sim/ ./internal/network/ ./internal/pami/ ./internal/armci/ ./internal/bench/ ./internal/serve/

# Engine wall-clock benchmarks (the cost of simulating): micro benches
# plus the reduced Fig 9 p=4096 / SCF scenarios, written to
# BENCH_sim.json — the committed baseline every perf PR is compared
# against. The second line runs the per-figure paper benches.
bench:
	$(GO) run ./cmd/simbench -out BENCH_sim.json
	$(GO) test -bench=. -benchmem -benchtime=1x .

# Parallel-sweep race gate: concurrent whole-simulation isolation,
# worker-count invariance and overlapping Map calls on one engine under
# the race detector.
race-sweep:
	$(GO) test -race -run 'TestSweep|TestConcurrent' .

# Intra-run shard race gate: the lane pool, the boundary and the
# cross-lane deposit path under the race detector — the shard invariance
# tests (golden scenario, fig9, chaos, composed, and the 64-lane world
# whose derived dispatch grain exceeds one, fault-free and under chaos),
# the frozen legacy-engine equivalence, and two sharded worlds running
# concurrently — plus ARMCI's world-wide handler table serving every
# rank's contexts from parallel lanes, and the sim package's own lane
# engine (grain x worker matrix included), horizon-tree tests and the
# lane-shortcut differential oracle (TestLaneShortcuts*, the fuzz
# target's seeds), which runs every program at 2 and 4 workers.
race-shards:
	$(GO) test -race -run 'TestShard|TestLegacyEngine' . ./internal/armci/
	$(GO) test -race -run 'TestLane|FuzzLaneShortcuts|TestHorizon|TestPopUpTo|TestMarkDirty' ./internal/sim/

# Ten seconds of generated input per fuzz target: programs through the
# lane-shortcut oracle (internal/sim/shortcut_test.go: shortcuts on
# against shortcuts off, at 1, 2 and 4 workers, everything observable
# compared), then job bodies through the constructor the proxy hop relies
# on (internal/serve/fuzz_test.go: a canonical body parses back to the
# same key and bytes), then bodies posted twice to a server whose parse
# memo must answer the second post as the full parse answered the first.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzLaneShortcuts -fuzztime 10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzJobCanonIdempotent -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz FuzzParseMemoAgrees -fuzztime 10s ./internal/serve/

# Shard scaling gate: times the fig9 p=16384 scenario serial vs 2/4 lane
# workers, after asserting the simulated latency is bit-identical at
# every shard count. With -gate-shards, simbench exits 1 when a shardsN
# row is >10% slower than serial on a host with GOMAXPROCS >= N; smaller
# hosts report and pass (extra lane workers only multiplex there, which
# is what the run records). The core count is echoed first and kept in
# the report's note field.
bench-shards:
	@echo "bench-shards: host cores (GOMAXPROCS default) = $${GOMAXPROCS:-$$(nproc 2>/dev/null || echo '?')}"
	$(GO) run ./cmd/simbench -only '^fig9_p16384' -gate-shards -out ''

# Regenerate every figure/table at full scale into results/.
figures:
	mkdir -p results
	$(GO) run ./cmd/armci-bench tables | tee results/tables.txt
	$(GO) run ./cmd/armci-bench fig | tee results/microbench.txt

# Fig 11 at paper scale, one file per process count (about a minute for
# all three on two cores).
scf:
	mkdir -p results
	for p in 1024 2048 4096; do \
		$(GO) run ./cmd/armci-bench scf -procs $$p -iters 1 | tee results/fig11_$$p.txt; \
	done

# One-minute reduced-scale audit of the whole reproduction, plus the
# aggregated metrics dump (render with `go run ./cmd/obs-report`).
report:
	mkdir -p results
	$(GO) run ./cmd/armci-bench report -metrics results/metrics.txt | tee results/report.md

# Removes what building, testing and running leave behind and .gitignore
# lists — nothing tracked: results/ holds committed artifacts (the
# paper-scale Fig 11 runs, report.md, the README).
clean:
	rm -rf results/metrics.txt benchmark/out armci-bench obs-report simbench simd
	find . -name '*.test' -type f -delete
