# Reproduction harness shortcuts. Everything is plain `go` underneath.

GO ?= go

.PHONY: all test test-short vet check bench bench-shards fuzz-smoke figures report scf clean

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
# keeps slab-resident state (sim.NoCopy) from being copied. The suite is
# the race gate for both layers of parallelism, nothing else re-runs it:
# whole simulations running concurrently, worker-count invariance and
# overlapping Map calls on one engine (root TestSweep*, TestConcurrent*);
# the lane pool, the boundary and the cross-lane deposit path (root
# TestShard* and TestLegacyEngine*, internal/armci's world-wide handler
# table serving every rank's contexts from parallel lanes, internal/sim's
# lane engine with its grain x worker matrix, the horizon tree, and the
# lane-shortcut differential oracle — TestLaneShortcuts* and the fuzz
# target's seeds — which runs every program at 2 and 4 workers). It also
# includes the serving gates: ./cmd/simd starts real simd processes, race
# detector and all — load then SIGTERM, the 3-replica kill drill, the
# restart over a survivor's store — and none of them skips under -short.
# Under -race a registry passed to obs Merge is retired, so the suite also
# shows that no layer records into a lane or point registry after it was
# merged. A chaos run recycles flights, payloads and operation slots as a
# healthy one does, so the race run poisons and retires them under
# duplicated, late and dropped messages too
# (TestRecyclingUnderDuplicationPoisonsNothing,
# TestSlotRecyclingUnderDuplication, the chaos worlds of
# TestShelfReuseIsInvisible).
# The zero-allocation invariants skip under -race (its instrumentation
# allocates), so the last line runs them, the objects- and
# switches-per-rank budgets (each objects budget and the thread-spawn one
# cold, from an empty carrier pool, and warm, from a primed one and, for
# the world budgets, a primed engine shelf — the runtimes, clients,
# contexts, spaces, lanes and threads, with the tables they grew, and the
# flights, payload buffers, rank heaps, lane arrays and torus earlier
# worlds of one sweep engine left there, where a cold world makes its own:
# TestThreadSpawnWarmAllocBound, TestFig9WarmObjectsPerRank,
# TestFig9MetricsWarmObjectsPerRank, TestIdleWorldWarmObjectsPerRank; a
# second same-shape world grows no lane array, rank or lane slab, clique,
# queue, pend or slot table, TestSecondWorldLaneArraysAllocFree and
# TestSecondWorldRankSlabsAllocFree; a second same-shape chaos world
# makes a tenth of what it made before chaos runs recycled,
# TestChaosSecondWorldAllocBudget; a nil registry makes no
# histogram bounds per lane, TestNilRegistryNewAllocsNoBounds; a
# metrics-only world's per-rank series cost no object,
# TestFig9MetricsObjectsPerRank),
# the region-cache replay budget of a
# 16384-rank world (skipped under -short), the event-size pin, the RDMA
# flight and payload-pool budgets (internal/pami, internal/mem), the
# patch budget (internal/ga: Get, Put, Acc, OwnData and Fill allocate
# nothing in steady state), the SCF iteration budget and GC independence
# (internal/nwchem: iterations after the first contacts cost only the
# peers first met late, and a warm run makes the same objects at GOGC 25,
# 100, 400 and off),
# the merge budget (internal/obs: per track, never per record) and simd's
# hit-path, cold-write and point-delivery allocation budgets
# (internal/serve: parse memo + LRU hit, parse memo + verified disk load,
# TestColdWriteAllocBudget's synchronous cold job onto a store, a point's
# trace at 64 and at 2048 records) on plain counts, -v so the CI log shows
# what was measured.
check:
	$(GO) vet ./...
	$(GO) test -short -race ./internal/fault/ ./...
	$(GO) test -v -run 'Alloc|ObjectsPerRank|SwitchesPerRank|ReplayHeads|EventSize' ./internal/mem/ ./internal/sim/ ./internal/network/ ./internal/pami/ ./internal/armci/ ./internal/ga/ ./internal/nwchem/ ./internal/bench/ ./internal/obs/ ./internal/serve/

# What the host pays to simulate, as the Go benchmarks at the foot of
# bench_test.go. First line: the per-event / switch / message / operation
# rows at the default benchtime. Second line: everything that runs whole
# simulations per op — the engine rows (Fig 9 at p = 4096, the reduced
# SCF, two figure sweeps on 1 and on GOMAXPROCS sweep workers) and the
# quick-scale figure runs (BenchmarkPaperClaims, one sub-benchmark per
# run) — at a fixed 3 iterations (go test runs one more first and
# discards it, which warms route caches and the heap).
# ns/op is this host's; allocs/op travels. To compare two commits:
# -count 10 on each and benchstat; -bench is the row filter and
# -cpuprofile/-memprofile are go test's own.
bench:
	@echo "bench: nproc=$$(nproc 2>/dev/null || echo '?') GOMAXPROCS=$${GOMAXPROCS:-unset} $$($(GO) version)"
	$(GO) test -run '^$$' -bench 'KernelEvents|ThreadSwitch|SleepUncontended|NetworkSend|SimulatedGetRate' -benchmem .
	$(GO) test -run '^$$' -bench . -skip 'KernelEvents|ThreadSwitch|SleepUncontended|NetworkSend|SimulatedGetRate|Fig9Shards' -benchtime 3x -benchmem .

# Ten seconds of generated input per fuzz target: programs through the
# lane-shortcut oracle (internal/sim/shortcut_test.go: shortcuts on
# against shortcuts off, at 1, 2 and 4 workers, everything observable
# compared), then job bodies through the constructor the proxy hop relies
# on (internal/serve/fuzz_test.go: a canonical body parses back to the
# same key and bytes), then bodies posted twice to a server whose parse
# memo must answer the second post as the full parse answered the first,
# then arbitrary entry bytes on disk, which the store must serve only when
# the entry's header line vouches for them and quarantine otherwise, then
# peer-fill answers (body, declared sha, status, a cut connection), which
# the filler must accept exactly when every byte arrived and matches, then
# strided descriptors of 0-8 levels, whose wire header must round-trip and
# whose pack/unpack must equal a per-element copy, then Prometheus text,
# which obs-report must parse without a panic and which, written from a
# registry, must parse back to what the registry recorded, then
# Alloc/Free/SizeOf sequences on one address space, held to a map of the
# live blocks (no overlap, sizes, Used, a bad Free panics), then trace
# records and metadata lines of any times, names and categories, whose
# encoding must equal the fmt and json.Marshal formatter's byte for byte,
# then operation sequences on registries (counters, attached fields,
# gauges, histograms, families read from slabs bumped until and after
# their merge, track records) split across one to four children merged in
# order, whose exports must equal the same sequence recorded into one
# registry, then ARMCI histories (puts, gets, accumulates, fences,
# AllFences, Mallocs, Frees and suspect windows in worlds of up to 64
# ranks), whose driving rank's clique table must hold what a p-wide
# reference holds after every step (internal/armci/clique_diff_test.go).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzLaneShortcuts -fuzztime 10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzJobCanonIdempotent -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz FuzzParseMemoAgrees -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz FuzzStoreGet -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz FuzzFillVerify -fuzztime 10s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz FuzzStridedPatch -fuzztime 10s ./internal/armci/
	$(GO) test -run '^$$' -fuzz FuzzParseExposition -fuzztime 10s ./cmd/obs-report/
	$(GO) test -run '^$$' -fuzz FuzzSpaceAllocFree -fuzztime 10s ./internal/mem/
	$(GO) test -run '^$$' -fuzz FuzzTraceLine -fuzztime 10s ./internal/obs/
	$(GO) test -run '^$$' -fuzz FuzzMergeMatchesSerial -fuzztime 10s ./internal/obs/
	$(GO) test -run '^$$' -fuzz FuzzCliqueMatchesDense -fuzztime 10s ./internal/armci/

# Shard scaling: the fig9 p = 16384 simulation on 1, 2 and 4 lane workers
# (BenchmarkFig9Shards, which fails if the simulated latency differs
# between them). Each row's lane-workers column is what CoreBudget
# resolved the shard count to on this host: on fewer cores than N extra
# lane workers would only multiplex, so shards=N runs on fewer and says
# nothing about N. Without `-bench ...p=16384` (and without -short) the
# benchmark goes on to p = 65536.
bench-shards:
	@echo "bench-shards: nproc=$$(nproc 2>/dev/null || echo '?') GOMAXPROCS=$${GOMAXPROCS:-unset} $$($(GO) version)"
	$(GO) test -run '^$$' -bench 'Fig9Shards/p=16384' -benchtime 2x -benchmem .

# Regenerate every figure/table at full scale into results/.
figures:
	mkdir -p results
	$(GO) run ./cmd/armci-bench tables | tee results/tables.txt
	$(GO) run ./cmd/armci-bench fig | tee results/microbench.txt

# Fig 11 at paper scale: 1024, 2048 and 4096 processes, one SCF cycle
# (about 20 s on two cores).
scf:
	mkdir -p results
	$(GO) run ./cmd/armci-bench scf | tee results/fig11.txt

# The reproduction's verdict: every claim of internal/bench's table judged
# on the paper-scale runs (two 4096-rank SCF runs at once).
# TestResultsFresh fails when any results/ file differs from what these
# targets print. The run's metrics go to results/metrics.txt (gitignored),
# where `go run ./cmd/obs-report` reads them by default; a metrics-only
# registry records no span, so they cost the run a fraction of its time.
report:
	mkdir -p results
	$(GO) run ./cmd/armci-bench report -metrics results/metrics.txt | tee results/report.md

# Removes what building, testing and running leave behind and .gitignore
# lists — nothing tracked: results/ holds committed artifacts (the
# paper-scale figures, Fig 11, report.md, the README).
clean:
	rm -rf results/metrics.txt benchmark/out armci-bench obs-report simd
	find . -name '*.test' -type f -delete
