package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// simCase is one sim workload's inputs, made from the seed.
type simCase struct {
	spec    string // DSL body; "" when op is not a DSL run
	warmups int    // discarded simulations before the timed part
	// lanes, when not 0, makes the traced run repeat the workload on that
	// many lane workers: the bytes must not change, and the ratio of the
	// wall times is sim.lane_speedup_x2.
	lanes int
	// op runs one full simulation on eng and returns its rendered bytes.
	// Spans hang under parent; a nil tracer records none.
	op func(eng *Engine, tr *tracer, parent, opID int) ([]byte, error)
	// replicas are the benchmark's own rank bodies that re-run the DSL
	// spec's worlds through armci.Run with phase marks (traced run only).
	replicas []replica
	// simLayer adds the workload's own simulated layer metrics, given the
	// untraced median host time of one operation in milliseconds.
	simLayer func(l map[string]float64, opMS float64)
}

// perturb is the seed's offset for one secondary size of a workload: 0
// for seed 1 (the documented sizes, the only ones with goldens), else a
// value in [0, n) fixed by the seed. The sizes it moves are chosen so
// that the cost of a run changes by under 1 %: the driver compares runs
// across seeds.
func perturb(seed uint64, n int) int {
	if seed == 1 {
		return 0
	}
	z := seed + 0x9e3779b97f4a7c15 // splitmix64
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int((z ^ (z >> 31)) % uint64(n))
}

// specOp is the DSL path a caller of armci-bench or simd takes: parse →
// canon → run → render (csv).
func specOp(body string) func(eng *Engine, tr *tracer, parent, opID int) ([]byte, error) {
	return func(eng *Engine, tr *tracer, parent, opID int) ([]byte, error) {
		id := tr.begin("scenario.Parse", parent, opID)
		sp, err := parseSpec(strings.NewReader(body))
		tr.end(id, "")
		if err != nil {
			return nil, err
		}
		id = tr.begin("scenario.Canon", parent, opID)
		sp, err = canonSpec(sp)
		tr.end(id, "")
		if err != nil {
			return nil, err
		}
		id = tr.begin("scenario.Run", parent, opID)
		res, err := runSpec(context.Background(), eng, sp)
		tr.end(id, "")
		if err != nil {
			return nil, err
		}
		id = tr.begin("scenario.Render", parent, opID)
		var buf bytes.Buffer
		err = res.Render(&buf, "csv")
		tr.end(id, "")
		return buf.Bytes(), err
	}
}

// amoCase is Fig 9 at the wire API's largest scale: every rank but 0
// hammers a rank-0 counter through the async progress thread while rank
// 0 computes. The measured engine is the serial lane engine; the traced
// run repeats the spec on two lane workers.
func amoCase(e *env) simCase {
	procs, perNode, opsEach := 4096-perturb(e.seed, 16), 16, 2
	if e.short {
		procs = 64 - perturb(e.seed, 4)
	}
	spec := fmt.Sprintf(`{"phases":[{"pattern":"fetchadd","params":{"ops_each":%d,"compute":true},`+
		`"topology":{"procs":[%d],"per_node":%d},"engine":{"mode":"async"}}]}`, opsEach, procs, perNode)
	return simCase{spec: spec, warmups: 3, lanes: 2, op: specOp(spec),
		replicas: []replica{fetchAddReplica(procs, perNode, opsEach)}}
}

// pingPhase is the Fig 3 latency sweep, 16 B to 1 MiB; it is phase 0 of
// rdma_stream and, alone, the paper probe of every other workload.
func pingPhase(iters int) string {
	return fmt.Sprintf(`{"pattern":"ping","params":{"iters":%d},`+
		`"sizes":{"kind":"sweep","min_bytes":16,"max_bytes":1048576},"engine":{"mode":"async"}}`, iters)
}

// pingSizes is the size list that sweep resolves to.
func pingSizes() (sizes []int) {
	for m := 16; m <= 1<<20; m *= 2 {
		sizes = append(sizes, m)
	}
	return sizes
}

// rdmaCase is the steady-state data path: the contiguous latency sweep,
// then a halo exchange of contiguous RDMA puts and typed strided puts.
func rdmaCase(e *env) simCase {
	pingIters, tiles, tileN, haloIters, perNode := 100-perturb(e.seed, 4), 8, 128, 40, 16
	if e.short {
		pingIters, tiles, tileN, haloIters = 2, 2, 16, 2
	}
	spec := fmt.Sprintf(`{"phases":[%s,{"pattern":"halo","params":{"tiles_x":%d,"tiles_y":%d,"tile_n":%d,"iters":%d},`+
		`"topology":{"per_node":%d},"engine":{"mode":"async"}}]}`,
		pingPhase(pingIters), tiles, tiles, tileN, haloIters, perNode)
	return simCase{spec: spec, warmups: 2, op: specOp(spec),
		replicas: []replica{pingReplica(pingSizes(), pingIters),
			haloReplica(tiles, tiles, tileN, haloIters, perNode)}}
}

// scfCase is the paper's application result (Fig 11) at reduced scale:
// ga patch get → host-side contraction → ga accumulate, with the nxtask
// counter mixed in, run through sweep.Map so the worker pool is used.
func scfCase(e *env) simCase {
	procs, iters := 256, 12
	if e.short {
		procs, iters = 16, 1
	}
	atomBF := []int{8, 6, 6, 8, 6, 6}
	flopRate := 2e7 * (1 + float64(perturb(e.seed, 8))/1000)
	var last SCFResult
	op := func(eng *Engine, tr *tracer, parent, opID int) ([]byte, error) {
		id := tr.begin("nwchem.Experiment", parent, opID)
		last = sweepMap(eng, 1, func(c *SweepCtx, _ int) SCFResult {
			return scfExperiment(c.Cfg(ArmciConfig{Procs: procs, ProcsPerNode: 16, AsyncThread: true}),
				atomBF, iters, flopRate)
		})[0]
		tr.end(id, "")
		id = tr.begin("render", parent, opID)
		r := last
		out := fmt.Sprintf("procs,wall_ns,energy,tasks,nbf,counter_ns,get_ns,compute_ns,acc_ns,other_ns,max_counter_ns\n"+
			"%d,%d,%s,%d,%d,%d,%d,%d,%d,%d,%d\n", r.Procs, r.WallTime,
			strconv.FormatFloat(r.Energy, 'g', -1, 64), r.Tasks, r.NBF,
			r.CounterWait, r.GetWait, r.Compute, r.AccWait, r.Other, r.MaxCounterWait)
		tr.end(id, "")
		return []byte(out), nil
	}
	return simCase{warmups: 2, op: op,
		simLayer: func(l map[string]float64, opMS float64) {
			l["nwchem.tasks"] = float64(last.Tasks)
			if tot := last.CounterWait + last.GetWait + last.Compute + last.AccWait + last.Other; tot > 0 {
				l["nwchem.counter_wait_share"] = float64(last.CounterWait) / float64(tot)
			}
			l["nwchem.iter_ms"] = opMS / float64(iters)
		}}
}

// paperErr is the largest relative error, in percent, of the simulated
// get(16 B), put(16 B) and asymptotic bandwidth (the 512 KiB → 1 MiB
// slope of blocking get latency) against the paper's 2.89 us, 2.70 us
// and 1775 MB/s, read from a rendered ping phase.
func paperErr(csv []byte) (float64, error) {
	get := make(map[int]float64)
	var put16 float64
	for _, line := range strings.Split(string(csv), "\n") {
		f := strings.Split(line, ",")
		if len(f) != 3 {
			continue
		}
		size, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			continue // header
		}
		g, err1 := strconv.ParseFloat(f[1], 64)
		p, err2 := strconv.ParseFloat(f[2], 64)
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("paper probe: bad row %q", line)
		}
		get[int(size)] = g
		if int(size) == 16 {
			put16 = p
		}
	}
	g16, gHalf, gFull := get[16], get[512<<10], get[1<<20]
	if g16 == 0 || put16 == 0 || gFull <= gHalf {
		return 0, fmt.Errorf("paper probe: ping rows for 16 B, 512 KiB and 1 MiB not found")
	}
	bw := float64(512<<10) / (gFull - gHalf) // bytes per us = MB/s
	worst := 0.0
	for _, pair := range [][2]float64{{g16, 2.89}, {put16, 2.70}, {bw, 1775}} {
		if d := 100 * math.Abs(pair[0]-pair[1]) / pair[1]; d > worst {
			worst = d
		}
	}
	return worst, nil
}

// scale returns xs multiplied by f.
func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// paperProbe runs the ping sweep alone, once, in set-up: the accuracy
// figure printed beside the speed figures of a workload that has no
// paper reference of its own.
func paperProbe(e *env, eng *Engine) (float64, error) {
	iters := 100
	if e.short {
		iters = 2
	}
	out, err := specOp(`{"phases":[`+pingPhase(iters)+`]}`)(eng, nil, 0, 0)
	if err != nil {
		return 0, err
	}
	return paperErr(out)
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// opTimes is what one timed stretch of simulations measured.
type opTimes struct {
	wallUS, cpuUS []float64 // per operation
	refUS         []float64 // the yardstick's CPU time, run after each operation
	allocs        float64   // Go heap allocations per operation
}

// costUS is each operation's CPU time against the yardstick run right
// after it, in microseconds of the reference host.
func (t opTimes) costUS() []float64 {
	out := make([]float64, len(t.cpuUS))
	for i := range out {
		out[i] = t.cpuUS[i] / t.refUS[i] * refNominalUS
	}
	return out
}

// runSim drives one sim workload: set-up (warm-ups, paper probe, golden
// check), then the timed part — simulations back to back, closed loop,
// one caller — and, traced, a second half that records spans and
// counters, the armci replicas, the lane sibling and the rungs.
func runSim(e *env, c simCase) (*outcome, error) {
	o := newOutcome()
	eng := newEngine(1, 0, nil)

	// checked runs one simulation and counts it; ref is the bytes every
	// run of this workload must reproduce.
	var ref []byte
	checked := func(eng *Engine, tr *tracer, parent, opID int, what string) (wall, cpu time.Duration, err error) {
		c0, t0 := cpuNow(), time.Now()
		out, err := c.op(eng, tr, parent, opID)
		wall, cpu = time.Since(t0), cpuNow()-c0
		o.attempted++
		switch {
		case err != nil:
			o.fail("%s: %v", what, err)
		case ref == nil:
			ref = out
		case !bytes.Equal(out, ref):
			o.fail("%s: rendered bytes differ from the workload's first run (sha256 %s vs %s)",
				what, sha256Hex(out), sha256Hex(ref))
		}
		return wall, cpu, err
	}

	// --- set-up ---
	// A workload without a ping phase of its own runs the paper probe
	// first, while the heap is small: after the warm-ups a collection of
	// a multi-GB heap can land in the middle of it.
	var perr float64
	var err error
	ownPing := strings.Contains(c.spec, `"ping"`)
	if !ownPing {
		perr, err = paperProbe(e, eng)
		o.attempted++
		if err != nil {
			o.fail("%v", err)
		}
	}

	// Warm-up simulations are timed one by one: they are the repeated
	// part of set-up, and setup_s counts them at their median, because
	// any one of them can hit a storm of first-touch page faults and take
	// several times as long.
	var warmWall, warmCPU []float64
	for i := 0; i < c.warmups; i++ {
		runtime.GC() // the timed part's cadence, so the heap settles where it will stay
		wall, cpu, err := checked(eng, nil, 0, 0, fmt.Sprintf("warm-up %d", i))
		if err != nil {
			return o, nil
		}
		warmWall, warmCPU = append(warmWall, wall.Seconds()), append(warmCPU, cpu.Seconds())
	}
	if ownPing {
		perr, err = paperErr(ref)
		o.attempted++
		if err != nil {
			o.fail("%v", err)
		}
	}
	checkGolden(e, o, sha256Hex(ref))
	runtime.GC()
	n := float64(c.warmups)
	o.e2e["setup_s"] = cpuNow().Seconds() - sum(warmCPU) + n*median(warmCPU)
	o.layer["host.setup_wall_s"] = time.Since(processStart).Seconds() - sum(warmWall) + n*median(warmWall)
	o.notes = append(o.notes, fmt.Sprintf("warm-up simulations, CPU s: %.2f (wall s: %.2f); setup_s counts each at their median", warmCPU, warmWall))

	// --- timed part ---
	// measure runs simulations on eng until the budget is spent (at
	// least three), with a collection between them outside the timed
	// span.
	measure := func(eng *Engine, tr *tracer, budget time.Duration, what string) (t opTimes) {
		deadline := time.Now().Add(budget)
		var allocs uint64
		for i := 0; i < 3 || time.Now().Before(deadline); i++ {
			runtime.GC()
			opID := o.attempted + 1
			root := tr.begin("op", 0, opID)
			m0 := mallocs()
			wall, cpu, err := checked(eng, tr, root, opID, what)
			allocs += mallocs() - m0
			tr.end(root, "")
			if err != nil {
				break
			}
			// The yardstick, beside the operation it is held against.
			ref, err := e.ys.measure()
			if err != nil {
				o.attempted++
				o.fail("%v", err)
				break
			}
			t.wallUS = append(t.wallUS, float64(wall.Nanoseconds())/1e3)
			t.cpuUS = append(t.cpuUS, float64(cpu.Nanoseconds())/1e3)
			t.refUS = append(t.refUS, ref)
		}
		if len(t.cpuUS) > 0 {
			t.allocs = float64(allocs) / float64(len(t.cpuUS))
		}
		return t
	}

	budget := e.timed()
	if e.trace {
		budget /= 2
	}
	rss := startRSSSampler()
	steal0, t0 := stealNow(), time.Now()
	t := measure(eng, nil, budget, "timed run")
	o.layer["host.steal_pct"] = stealPct(steal0, t0)
	o.e2e["rss_mb"], o.layer["host.peak_rss_mb"] = rss.stop()
	if len(t.cpuUS) == 0 {
		return o, nil
	}
	p50 := median(t.wallUS)
	o.samples["op_cost_us"] = len(t.cpuUS)
	o.notes = append(o.notes, fmt.Sprintf("one operation = one full simulation; %d timed, CPU ms: %.0f, wall ms: %.0f, the yardstick after each, CPU ms: %.0f; "+
		"fewer than 20 samples a run, so no percentile above the median qualifies and host.op_tail_us repeats the median",
		len(t.cpuUS), scale(t.cpuUS, 1e-3), scale(t.wallUS, 1e-3), scale(t.refUS, 1e-3)))
	o.e2e["op_cost_us"] = midmean(t.costUS())
	o.layer["host.op_cpu_us"] = midmean(t.cpuUS)
	o.layer["host.ref_us"] = median(t.refUS)
	o.e2e["allocs_per_op"] = t.allocs
	o.e2e["paper_err_max_pct"] = perr
	o.layer["host.op_p50_us"] = p50
	o.layer["host.op_tail_us"] = p50
	o.layer["host.ops_per_s"] = 1e6 / p50 // one operation is one segment: the median of the per-operation rates

	if e.trace {
		traceSim(e, c, o, eng, measure, p50)
	}
	return o, nil
}

// traceSim is the traced half of a sim run: the armci replicas on the
// warm engine, then the same simulations on an engine that feeds an obs
// registry, under spans; then the rungs and the ladder.
func traceSim(e *env, c simCase, o *outcome, eng *Engine,
	measure func(*Engine, *tracer, time.Duration, string) opTimes, p50us float64) {
	l := o.layer
	// The traced half is shared out between the lane sibling, if there is
	// one, and the traced simulations.
	budget := e.timed() / 2
	if c.lanes > 0 {
		budget /= 2
	}

	// The armci replicas, timed on the workload's own warm engine: host
	// time of each world's phases.
	var ph phases
	for _, r := range c.replicas {
		runtime.GC() // as before every timed simulation
		rp, err := r.timed(eng, e.tr, o.attempted+1)
		o.attempted++
		if err != nil {
			o.fail("armci replica: %v", err)
			return
		}
		ph.add(rp)
	}
	if len(c.replicas) == 0 {
		o.notes = append(o.notes, "armci.*_ms phase marks need a rank body of the benchmark's own; this workload runs nwchem.Experiment whole, so they read 0")
	}

	// The lane speedup: the same spec on lane workers, timed in this same
	// process; its bytes must equal the serial lane engine's. One warm
	// engine at a time — two side by side grow the heap, and fresh pages
	// are slow — so the serial engine is let go first, and the laned one
	// gets warm-up runs of its own before it is timed.
	eng = nil
	if c.lanes > 0 {
		runtime.GC()
		laned := newEngine(1, c.lanes, nil)
		measure(laned, nil, 0, "lane-worker warm-up")
		t := measure(laned, nil, budget, fmt.Sprintf("run on %d lane workers", c.lanes))
		if len(t.wallUS) > 0 {
			l["sim.lane_speedup_x2"] = p50us / median(t.wallUS)
			o.samples["sim.lane_speedup_x2"] = len(t.wallUS)
			o.notes = append(o.notes, fmt.Sprintf("sim.lane_speedup_x2 = serial-lane wall p50 %.0f us / %d-lane-worker wall p50 %.0f us (CPU p50 %.0f us), at GOMAXPROCS %d",
				p50us, c.lanes, median(t.wallUS), median(t.cpuUS), runtime.GOMAXPROCS(0)))
		}
	} else {
		o.notes = append(o.notes, "sim.lane_speedup_x2 is measured by amo_storm only")
	}

	// The traced engine takes over the untraced ones' memory.
	runtime.GC()
	reg := newRegistry()
	teng := newEngine(1, 0, reg)
	tus := measure(teng, e.tr, budget, "traced run").wallUS
	if len(tus) == 0 {
		return
	}
	o.samples["trace_overhead_pct"] = len(tus)
	l["trace_overhead_pct"] = 100 * (median(tus)/p50us - 1)

	// Counters accumulate over the traced runs; each run adds the same
	// amounts, so dividing by the run count gives one run's.
	snap, err := snapshot(reg)
	if err != nil {
		o.attempted++
		o.fail("obs snapshot: %v", err)
		return
	}
	n := float64(len(tus))
	per := func(prefix string) float64 { return float64(snap.sum(prefix)) / n }
	l["sim.events"] = per("sim/events")
	l["sim.rounds"] = per("sim/rounds")
	l["sim.boundary_ops"] = per("sim/boundary_ops")
	l["sim.serial_permille"] = float64(snap.Gauges["sim/serial_permille"])
	l["sim.window_width_ns_p50"] = snap.histPercentile("sim/window_width_ns", 0.50)
	l["network.messages"] = per("network/messages")
	l["network.hops"] = per("network/hops")
	l["network.payload_bytes"] = per("network/payload_bytes")
	l["network.nic_stalled"] = per("network/nic.stalled")
	l["network.link_qdelay_ns_p99"] = snap.histPercentile("network/link.qdelay_ns", 0.99)
	l["pami.advances"] = per("pami/ctx.advances{")
	l["pami.items_served"] = per("pami/ctx.items_served{")
	l["pami.ams_served"] = per("pami/ctx.ams_served{")
	l["pami.lock_contended"] = per("pami/ctx.lock.contended{")
	l["pami.starve_max_ns"] = float64(snap.maxGauge("pami/ctx.starve_max_ns{"))
	if adv := l["pami.advances"]; adv > 0 {
		l["pami.useful_advance_ratio"] = l["pami.items_served"] / adv
	}
	l["armci.ops"] = per("armci/op.count{")
	l["armci.rmw"] = per("armci/rmw{")
	l["armci.fences"] = per("armci/fence{") + per("armci/allfence{")
	l["armci.regioncache_entries"] = per("armci/regioncache.entries{")
	l["armci.ep_created"] = per("armci/ep.created{")
	if ev := l["sim.events"]; ev > 0 {
		l["sim.event_host_ns"] = p50us * 1e3 / ev
	}
	if c.simLayer != nil {
		c.simLayer(l, p50us/1e3)
	}

	// The replicas' phase times are accepted only if the replicas replay
	// exactly the events the DSL run simulated.
	var replicaMS float64
	if len(c.replicas) > 0 {
		for _, r := range c.replicas {
			o.attempted++
			if err := r.counted(teng); err != nil {
				o.fail("armci replica: %v", err)
				return
			}
		}
		after, err := snapshot(reg)
		if err != nil {
			o.fail("obs snapshot: %v", err)
			return
		}
		if ev := float64(after.sum("sim/events") - snap.sum("sim/events")); ev != l["sim.events"] {
			o.fail("armci replica simulated %.0f events, the DSL run %.0f: trace rejected", ev, l["sim.events"])
			return
		}
		l["armci.init_ms"] = ph.init.Seconds() * 1e3
		l["armci.malloc_ms"] = ph.malloc.Seconds() * 1e3
		l["armci.ops_ms"] = ph.ops.Seconds() * 1e3
		l["armci.finalize_ms"] = ph.finalize.Seconds() * 1e3
		replicaMS = l["armci.init_ms"] + l["armci.malloc_ms"] + l["armci.finalize_ms"]
	}

	runRungs(e, o, c.spec)
	l["network.share"] = l["network.messages"] * l["network.send_ns"] / (p50us * 1e3)

	// Ladder: what the rungs below the operation explain of it — the
	// scenario spans, the world's bring-up and tear-down, and each
	// blocking armci op at its isolated cost. The rest (contention,
	// progress polling, host-side compute in the rank bodies) is the
	// residual.
	self := e.tr.selfTimes()
	scenarioUS := float64((self["scenario.Parse"] + self["scenario.Canon"] + self["scenario.Render"] + self["render"]).Nanoseconds()) / 1e3 / n
	opsNS := 0.0
	for op, rung := range map[string]string{"get": "armci.get_ns", "put": "armci.put_ns", "acc": "armci.acc_ns",
		"rmw": "armci.fetchadd_ns", "gets": "armci.gets_ns", "puts": "armci.puts_ns", "accs": "armci.puts_ns"} {
		opsNS += per("armci/op.count{op="+op+",") * l[rung]
	}
	l["ladder.residual_share"] = 1 - (scenarioUS+replicaMS*1e3+opsNS/1e3)/p50us
}
