# Reproduction harness shortcuts. Everything is plain `go` underneath.

GO ?= go

.PHONY: all test test-short vet check bench bench-shards race-sweep race-shards fuzz-smoke serve-smoke live-smoke compose-smoke cluster-smoke figures report scf clean

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
# keeps slab-resident state (sim.NoCopy) from being copied. The
# zero-allocation invariants skip under -race (its instrumentation
# allocates), so the last line runs them, the objects- and
# switches-per-rank budgets and the event-size pin on plain counts, -v so
# the CI log shows what was measured.
check:
	$(GO) vet ./...
	$(GO) test -short -race ./internal/fault/ ./...
	$(GO) test -v -run 'Alloc|ObjectsPerRank|SwitchesPerRank|EventSize' ./internal/sim/ ./internal/network/ ./internal/pami/ ./internal/armci/ ./internal/bench/

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

# Ten seconds of generated programs through the lane-shortcut oracle
# (internal/sim/shortcut_test.go): shortcuts on against shortcuts off, at
# 1, 2 and 4 workers, everything observable compared.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzLaneShortcuts -fuzztime 10s ./internal/sim/

# Shard scaling gate: times the fig9 p=16384 scenario serial vs sharded
# (GOMAXPROCS logged), after asserting byte-identical results. On a
# multi-core runner, fails if the sharded run is >10% slower than
# serial; single-core hosts report and pass (lane workers can only add
# overhead there, which is exactly what the run records).
bench-shards:
	sh scripts/bench-shards.sh

# Serving-layer gate: start simd, drive it with simload (0 errors, cache
# hits on the skewed phase, cached bytes identical to cold), then assert
# SIGTERM drains gracefully.
serve-smoke:
	sh scripts/serve-smoke.sh

# Live observability gate: a slow chaos sweep submitted asynchronously,
# with two SSE clients attaching at different times — both must
# reconstruct byte-identical artifacts (late attach replays the event
# log); every cold simload key streamed with -attach must match its
# synchronous bytes; SIGTERM must drain attached streams cleanly.
live-smoke:
	sh scripts/live-smoke.sh

# Composition gate: a two-phase composed spec (halo + faulted fetchadd)
# posted to fresh simd servers at every workers x shards combination in
# {1,4} x {1,4} — cold vs cached bytes identical per server, artifacts
# identical across all servers, and the offline `armci-bench compose`
# render identical to what the servers cached.
compose-smoke:
	sh scripts/compose-smoke.sh

# Cluster gate: a 3-replica simnet cluster under skewed simload with the
# hot key's owner SIGKILLed mid-run — zero failed requests after
# retries, every byte identical to a solo cold run, peer fills and
# proxied jobs observed on the survivors — then a restart over a
# survivor's store directory serving its keys from disk (disk_hits > 0)
# byte-identical via /v1/results/{hash}.
cluster-smoke:
	sh scripts/cluster-smoke.sh

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

clean:
	rm -rf results
