package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/armci"
	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// shardGoldenRun executes the golden workload at one lane worker count
// and captures everything a shard count could conceivably perturb: the
// kernel's event count and final virtual time, the full metrics dump,
// and the Chrome trace bytes.
func shardGoldenRun(t *testing.T, shards int) (events uint64, final sim.Time, metrics, trace string) {
	t.Helper()
	reg := obs.New(obs.WithTrackCap(256))
	w := goldenScenarioSharded(shards, reg)
	var mbuf, tbuf bytes.Buffer
	if err := reg.WritePrometheus(&mbuf); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteChromeTrace(&tbuf); err != nil {
		t.Fatal(err)
	}
	return w.K.EventsFired(), w.K.Now(), mbuf.String(), tbuf.String()
}

// TestShardCountInvariance is the determinism contract of the intra-run
// lane engine: Config.Shards only sets how many host goroutines execute
// the lanes, never which events fire or when, so event counts, final
// virtual time, metrics bytes, and trace bytes are identical at shards
// 1, 2, and 4. (On the lane engine this holds by construction — the
// window schedule is computed from lane state, not from which worker
// executes a lane — and this test is the tripwire for that property.)
func TestShardCountInvariance(t *testing.T) {
	e0, f0, m0, tr0 := shardGoldenRun(t, 0)
	for _, shards := range []int{1, 2, 4} {
		e, f, m, tr := shardGoldenRun(t, shards)
		if e != e0 || f != f0 {
			t.Errorf("shards=%d diverged: events/final (%d, %d), want (%d, %d)",
				shards, e, f, e0, f0)
		}
		if m != m0 {
			t.Errorf("shards=%d metrics bytes differ from shards=0", shards)
		}
		if tr != tr0 {
			t.Errorf("shards=%d trace bytes differ from shards=0", shards)
		}
	}
}

// TestShardChaosInvariance extends the invariance contract to the fault
// injector: retries, timeouts, drops, duplicates, and the recovered data
// itself are identical at every shard count, because fault verdicts are
// drawn in the serial boundary phase in deterministic order.
func TestShardChaosInvariance(t *testing.T) {
	withProcs(t, 4)
	base := bench.ChaosRun(bg, plan(1, 0), 8, 4, 10, 42)
	if !base.Clean() {
		t.Fatalf("chaos run corrupted data: %+v", base)
	}
	for _, shards := range []int{1, 2, 4} {
		r := bench.ChaosRun(bg, plan(1, shards), 8, 4, 10, 42)
		if r != base {
			t.Errorf("shards=%d chaos result diverged:\n got %+v\nwant %+v", shards, r, base)
		}
	}
}

// TestShardFig9Invariance runs the paper's Fig. 9 fetch-and-add workload
// at every shard count: the measured mean latency is a pure function of
// the simulation, so it must be bit-equal.
func TestShardFig9Invariance(t *testing.T) {
	withProcs(t, 4)
	base := bench.Fig9Point(bg, plan(1, 0), 16, 4, true, false, 4)
	for _, shards := range []int{1, 2, 4} {
		if got := bench.Fig9Point(bg, plan(1, shards), 16, 4, true, false, 4); got != base {
			t.Errorf("fig9 shards=%d: latency %v, want %v", shards, got, base)
		}
	}
}

// The lane dispatch grain is derived inside the kernel from (lanes,
// workers), so the only way to run a grain above one through the whole
// stack is a world wide enough to get one: 64 ranks at one per node is
// 64 lanes, which ConfigureLanes chunks by 4 at two lane workers and by
// 2 at four. (internal/sim's TestLaneGroupInvariance sweeps the grain
// itself, in-package.)
const wideProcs = 64

func wideConfig(shards int) armci.Config {
	return armci.Config{Procs: wideProcs, ProcsPerNode: 1, AsyncThread: true, Seed: 42, Shards: shards}
}

// TestShardWideWorldInvariance runs the golden traffic mix on the wide
// world: events, final time, metrics bytes and trace bytes must be
// identical at every lane worker count, and with them at every grain.
func TestShardWideWorldInvariance(t *testing.T) {
	withProcs(t, 4)
	run := func(shards int) (uint64, sim.Time, string, string) {
		reg := obs.New(obs.WithTrackCap(256))
		cfg := wideConfig(shards)
		cfg.Obs = reg
		w := armci.MustRun(cfg, func(th *sim.Thread, rt *armci.Runtime) {
			a := rt.Malloc(th, 4096)
			local := rt.LocalAlloc(th, 4096)
			peer := (rt.Rank + 1) % wideProcs
			for i := 0; i < 3; i++ {
				rt.Put(th, local, a.At(peer), 256)
				rt.Get(th, a.At(peer), local, 512)
				rt.FetchAdd(th, a.At(0), 1)
				rt.Acc(th, local, a.At(peer).Add(512), 64, 2.0)
			}
			rt.Fence(th, peer)
			rt.Barrier(th)
		})
		var mbuf, tbuf bytes.Buffer
		if err := reg.WritePrometheus(&mbuf); err != nil {
			t.Fatal(err)
		}
		if err := reg.WriteChromeTrace(&tbuf); err != nil {
			t.Fatal(err)
		}
		return w.K.EventsFired(), w.K.Now(), mbuf.String(), tbuf.String()
	}
	e0, f0, m0, tr0 := run(0)
	for _, shards := range []int{1, 2, 4} {
		e, f, m, tr := run(shards)
		if e != e0 || f != f0 {
			t.Errorf("shards=%d diverged: events/final (%d, %d), want (%d, %d)", shards, e, f, e0, f0)
		}
		if m != m0 {
			t.Errorf("shards=%d: metrics bytes differ", shards)
		}
		if tr != tr0 {
			t.Errorf("shards=%d: trace bytes differ", shards)
		}
	}
}

// TestShardWideWorldChaosInvariance is the same world under
// bench.ChaosPlan: workers hammer a rank-0 counter and a per-rank slot
// with the error-returning API, straddling the plan's outage and
// dead-node windows, and the whole recovery story (retries, timeouts,
// drops, recovered data) must be identical at every lane worker count,
// because fault verdicts are drawn in the boundary's canonical order.
func TestShardWideWorldChaosInvariance(t *testing.T) {
	withProcs(t, 4)
	const opsEach = 6
	run := func(shards int) string {
		cfg := wideConfig(shards)
		cfg.Fault = bench.ChaosPlan(42)
		var counter int64
		opErrors := make([]int, wideProcs) // per-rank slots: ranks run on parallel lanes
		w := armci.MustRun(cfg, func(th *sim.Thread, rt *armci.Runtime) {
			a := rt.Malloc(th, 8+wideProcs*64)
			if rt.Rank == 0 {
				rt.Barrier(th)
				counter = rt.Space().GetInt64(a.At(0).Addr)
				return
			}
			local := rt.LocalAlloc(th, 64)
			if d := bench.FaultEpoch - th.Now(); d > 0 {
				th.Sleep(d) // align the op stream to the plan's fault windows
			}
			for i := 0; i < opsEach; i++ {
				if _, err := rt.FetchAddErr(th, a.At(0), 1); err != nil {
					opErrors[rt.Rank]++
				}
				if err := rt.PutErr(th, local, a.At(0).Add(8+rt.Rank*64), 64); err != nil {
					opErrors[rt.Rank]++
				}
				th.Sleep(100 * sim.Microsecond)
			}
			rt.Barrier(th)
		})
		if want := int64((wideProcs - 1) * opsEach); counter != want {
			t.Errorf("shards=%d: counter %d, want %d (lost or doubled fetch-adds)", shards, counter, want)
		}
		if w.Faults.Dropped == 0 {
			t.Errorf("chaos world injected no drops; the comparison would prove nothing")
		}
		return fmt.Sprintf("events %d final %d counter %d errs %v stats %v dropped %d delayed %d duplicated %d",
			w.K.EventsFired(), w.K.Now(), counter, opErrors, w.AggregateStats(),
			w.Faults.Dropped, w.Faults.Delayed, w.Faults.Duplicated)
	}
	base := run(0)
	for _, shards := range []int{1, 2, 4} {
		if got := run(shards); got != base {
			t.Errorf("chaos shards=%d diverged:\n got %s\nwant %s", shards, got, base)
		}
	}
}

// composedShardSpec is a two-phase composition (an example pattern plus
// a faulted figure pattern) exercising the compose layer's whole
// fan-out.
const composedShardSpec = `{"phases":[
	{"pattern":"halo","params":{"tiles_x":2,"tiles_y":1,"tile_n":8,"iters":3},
	 "topology":{"per_node":2},"engine":{"mode":"async"}},
	{"pattern":"fetchadd","params":{"ops_each":3},
	 "topology":{"procs":[4],"per_node":4},"engine":{"mode":"default"},
	 "fault":{"seed":7,"events":[
		{"kind":"link_down","start_us":30050,"dur_us":100},
		{"kind":"delay","start_us":30000,"dur_us":2000,"prob":0.1,"delay_us":5}]}}
]}`

// TestShardComposedInvariance runs a composed scenario-DSL spec, the
// path the serving layer caches under a content address, at every shard
// count: rendered bytes must be identical.
func TestShardComposedInvariance(t *testing.T) {
	withProcs(t, 4)
	sp, err := scenario.Parse(strings.NewReader(composedShardSpec))
	if err != nil {
		t.Fatal(err)
	}
	render := func(shards int) []byte {
		res, err := scenario.Run(bg, plan(1, shards), sp)
		if err != nil {
			t.Fatalf("composed run (shards=%d): %v", shards, err)
		}
		var buf bytes.Buffer
		if err := res.Render(&buf, "csv"); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := render(0)
	if len(base) == 0 {
		t.Fatal("empty artifact")
	}
	for _, shards := range []int{1, 2, 4} {
		if !bytes.Equal(base, render(shards)) {
			t.Errorf("composed shards=%d: bytes differ", shards)
		}
	}
}

// legacyEngineFreeze is what the single-queue engine (armci.Config{Shards:
// -1} until the commit that deleted it) produced for the fixtures below,
// captured from that engine at the parent commit into
// testdata/legacy_engine_freeze.json. It is data, not a golden to
// re-pin: the engine that wrote it no longer exists.
type legacyEngineFreeze struct {
	GoldenStats map[string]int64 `json:"golden_stats"`
	Network     struct {
		Messages uint64 `json:"messages"`
		Bytes    uint64 `json:"bytes"`
		RawBytes uint64 `json:"raw_bytes"`
		Hops     uint64 `json:"hops"`
	} `json:"network"`
	Fig3CSVSHA256 string      `json:"fig3_csv_sha256"`
	Fig9CSVSHA256 string      `json:"fig9_csv_sha256"`
	Chaos         frozenChaos `json:"chaos"`
}

// frozenChaos is the engine-independent part of a bench.ChaosResult.
type frozenChaos struct {
	Procs      int     `json:"procs"`
	Ops        int64   `json:"ops"`
	Counter    int64   `json:"counter"`
	AccSum     float64 `json:"acc_sum"`
	AccWant    float64 `json:"acc_want"`
	BadBlocks  int     `json:"bad_blocks"`
	OpErrors   int     `json:"op_errors"`
	Retries    int64   `json:"retries"`
	Timeouts   int64   `json:"timeouts"`
	Recovered  int64   `json:"recovered"`
	Dropped    uint64  `json:"dropped"`
	Delayed    uint64  `json:"delayed"`
	Duplicated uint64  `json:"duplicated"`
}

// TestLegacyEngineEquivalence holds the lane engine to the single-queue
// engine it replaced. The two interleaved host-side bookkeeping
// differently — raw event counts and the exact final virtual time
// differ, which is why the determinism goldens were re-pinned when the
// lane engine became the default — but every simulated outcome agreed
// and must keep agreeing with the frozen capture: per-op stats
// aggregates, network traffic totals, rendered figure bytes, and the
// chaos run's recovery story.
func TestLegacyEngineEquivalence(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "legacy_engine_freeze.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want legacyEngineFreeze
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	laned := goldenScenarioSharded(0, obs.New(obs.WithTrackCap(256)))
	// A counter is in the set when it moved: every increment is positive.
	stats := laned.AggregateStats()
	moved := 0
	for _, v := range stats {
		if v != 0 {
			moved++
		}
	}
	if moved != len(want.GoldenStats) {
		t.Errorf("stat sets differ: legacy %d entries, laned %d", len(want.GoldenStats), moved)
	}
	for name, v := range want.GoldenStats {
		if got := stats.Get(name); got != v {
			t.Errorf("stat %q: legacy %d, laned %d", name, v, got)
		}
	}
	n := laned.M.Net.Totals()
	if n.Messages != want.Network.Messages || n.Bytes != want.Network.Bytes ||
		n.RawBytes != want.Network.RawBytes || n.Hops != want.Network.Hops {
		t.Errorf("network totals differ: legacy %+v, laned %+v", want.Network, n)
	}

	// Figure bytes: the simulated latencies are what the figures pin.
	if h := csvHash(bench.Fig3(bg, plan(0, 0), []int{16, 256, 4096}, 3)); h != want.Fig3CSVSHA256 {
		t.Errorf("fig3 CSV differs between engines: legacy %s, laned %s", want.Fig3CSVSHA256, h)
	}
	if h := csvHash(bench.Fig9(bg, plan(0, 0), []int{8, 16}, 4)); h != want.Fig9CSVSHA256 {
		t.Errorf("fig9 CSV differs between engines: legacy %s, laned %s", want.Fig9CSVSHA256, h)
	}

	// Chaos: identical recovery outcome, event schedule aside. Beyond
	// the event/time fields, DupsSeen is also schedule-dependent and so
	// not frozen: the injector draws per-message verdicts in event order,
	// so the two engines assign the same number of duplications to
	// (possibly) different messages — a duplicate landing on an AM
	// request is counted as suppressed, one landing on an idempotent put
	// or a retired reply is silently absorbed. The integrity fields
	// (Counter, AccSum, BadBlocks, OpErrors) and the fault totals must
	// agree exactly.
	c := bench.ChaosRun(bg, plan(0, 0), 8, 4, 10, 42)
	if !c.Clean() {
		t.Errorf("chaos run corrupted data: %+v", c)
	}
	got := frozenChaos{
		Procs: c.Procs, Ops: c.Ops, Counter: c.Counter,
		AccSum: c.AccSum, AccWant: c.AccWant, BadBlocks: c.BadBlocks, OpErrors: c.OpErrors,
		Retries: c.Retries, Timeouts: c.Timeouts, Recovered: c.Recovered,
		Dropped: c.Dropped, Delayed: c.Delayed, Duplicated: c.Duplicated,
	}
	if got != want.Chaos {
		t.Errorf("chaos outcome differs between engines:\nlegacy %+v\n laned %+v", want.Chaos, got)
	}
}

// TestShardedRunRace drives genuinely concurrent lane execution — two
// sharded worlds running at once, one of them under fault injection —
// so `go test -race` proves the lane pool, the boundary applier, the
// cross-lane deposit path, and the per-lane obs children share nothing
// unsynchronized. (Modeled on parallel_test.go, which proves the same
// for whole-world parallelism.)
func TestShardedRunRace(t *testing.T) {
	withProcs(t, 4)
	wantE, wantF, _, _ := shardGoldenRun(t, 0)
	wantChaos := bench.ChaosRun(bg, plan(1, 0), 8, 4, 6, 42)

	var wg sync.WaitGroup
	var e uint64
	var f sim.Time
	var chaos bench.ChaosResult
	wg.Add(2)
	go func() {
		defer wg.Done()
		w := goldenScenarioSharded(4, obs.New(obs.WithTrackCap(256)))
		e, f = w.K.EventsFired(), w.K.Now()
	}()
	go func() {
		defer wg.Done()
		chaos = bench.ChaosRun(bg, plan(1, 4), 8, 4, 6, 42)
	}()
	wg.Wait()

	if e != wantE || f != wantF {
		t.Errorf("sharded golden run diverged under concurrency: got (%d, %d), want (%d, %d)",
			e, f, wantE, wantF)
	}
	if chaos != wantChaos {
		t.Errorf("sharded chaos run diverged under concurrency:\n got %+v\nwant %+v", chaos, wantChaos)
	}
}
