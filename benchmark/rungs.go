package main

// rungs.go measures one public call of each layer in isolation, once per
// traced process: ns (or us) per call over a fixed iteration count. A
// rung is a sizing aid for the ladder — count × rung says how much of a
// workload a layer could explain — not a gated number.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// perCall times n calls of fn and returns nanoseconds per call.
func perCall(n int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// rungSpec is the spec the scenario rungs work on when the workload has
// no DSL spec of its own.
const rungSpec = `{"phases":[{"pattern":"ping","params":{"iters":2},"sizes":{"kind":"fixed","bytes":64}}]}`

// runRungs fills the rung metrics of every layer. spec is the workload's
// own DSL body ("" if it has none).
func runRungs(e *env, o *outcome, spec string) {
	l := o.layer
	scale := 1
	if e.short {
		scale = 100
	}
	n := func(full int) int { return max(full/scale, 2) }
	rungErr := func(what string, err error) {
		o.attempted++
		if err != nil {
			o.fail("rung %s: %v", what, err)
		}
	}

	// sim: one event scheduling the next; one coroutine switch.
	{
		k, count, N := newKernel(), 0, n(400_000)
		var tick func()
		tick = func() {
			if count++; count < N {
				k.At(1, tick)
			}
		}
		k.At(1, tick)
		t0 := time.Now()
		rungErr("sim.at_ns", k.Run())
		l["sim.at_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(N)
	}
	{
		k, N := newKernel(), n(200_000)
		k.Spawn("switcher", func(th *Thread) {
			for i := 0; i < N; i++ {
				th.Sleep(1)
			}
		})
		t0 := time.Now()
		rungErr("sim.switch_ns", k.Run())
		l["sim.switch_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(N)
	}

	// network: message rate across a 128-node torus.
	{
		k, N := newKernel(), n(200_000)
		nw := newTorusNetwork(k, [5]int{2, 2, 4, 4, 2})
		k.Spawn("src", func(th *Thread) {
			wg := newSimWaitGroup(k)
			wg.Add(N)
			for i := 0; i < N; i++ {
				sendData(nw, i%128, (i*7)%128, 512, wg.Done)
				if i%64 == 0 {
					th.Sleep(1)
				}
			}
			wg.Wait(th)
		})
		t0 := time.Now()
		rungErr("network.send_ns", k.Run())
		l["network.send_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(N)
	}

	// armci: blocking ops between two ranks on adjacent nodes, async
	// thread; the strided ops move 16 rows of 64 B.
	rungErr("armci", armciRun(ArmciConfig{Procs: 2, ProcsPerNode: 1, AsyncThread: true},
		func(th *Thread, rt *Runtime) {
			a := rt.Malloc(th, 64<<10)
			if rt.Rank != 0 {
				return
			}
			local := rt.LocalAlloc(th, 64<<10)
			rt.Get(th, a.At(1), local, 64) // warm the region and endpoint caches
			N := n(20_000)
			l["armci.get_ns"] = perCall(N, func() { rt.Get(th, a.At(1), local, 64) })
			l["armci.put_ns"] = perCall(N, func() { rt.Put(th, local, a.At(1), 64) })
			l["armci.acc_ns"] = perCall(N, func() { rt.Acc(th, local, a.At(1), 64, 1.0) })
			l["armci.fetchadd_ns"] = perCall(N, func() { rt.FetchAdd(th, a.At(1), 1) })
			strides, count := []int{256}, []int{64, 16}
			l["armci.gets_ns"] = perCall(N/4, func() { rt.GetS(th, a.At(1), strides, local, strides, count) })
			l["armci.puts_ns"] = perCall(N/4, func() { rt.PutS(th, local, strides, a.At(1), strides, count) })
		}))

	// ga: patch get, patch accumulate and the shared counter, 16 ranks.
	rungErr("ga", armciRun(ArmciConfig{Procs: 16, ProcsPerNode: 16, AsyncThread: true},
		func(th *Thread, rt *Runtime) {
			arr := gaCreate(th, rt, "rung", 64, 64)
			ctr := gaCounter(th, rt)
			arr.Fill(th, 1)
			arr.Sync(th)
			if rt.Rank == 0 {
				N := n(4_000)
				patch := make([]float64, 8*8)
				l["ga.get_ns"] = perCall(N, func() { arr.Get(th, 28, 28, 36, 36) })
				l["ga.acc_ns"] = perCall(N, func() { arr.Acc(th, 28, 28, 36, 36, patch, 1.0) })
				l["ga.readinc_ns"] = perCall(N, func() { ctr.Next(th) })
			}
			arr.Sync(th)
		}))

	// scenario: canon + hash of the spec (what simd does before any
	// lookup) and render of its result; sweep: Map of an empty task.
	if spec == "" {
		spec = rungSpec
	}
	eng := newEngine(1, 0, nil)
	var canonErr error
	l["scenario.canon_hash_ns"] = perCall(n(2_000), func() {
		sp, err := parseSpec(strings.NewReader(spec))
		if err == nil {
			sp, err = canonSpec(sp)
		}
		if err != nil {
			canonErr = err
			return
		}
		canon, _ := json.Marshal(sp)
		sha256.Sum256(canon)
	})
	rungErr("scenario.canon_hash_ns", canonErr)
	// Rendering is timed on the rung spec's result: simulating the
	// workload's own spec once more would cost a whole operation.
	sp, err := parseSpec(strings.NewReader(rungSpec))
	if err == nil {
		var res *SpecResult
		if res, err = runSpec(context.Background(), eng, sp); err == nil {
			var buf bytes.Buffer
			l["scenario.render_ns"] = perCall(n(2_000), func() {
				buf.Reset()
				res.Render(&buf, "csv")
			})
		}
	}
	rungErr("scenario.render_ns", err)
	l["sweep.map_overhead_us"] = perCall(n(2_000), func() {
		sweepMap(eng, 1, func(*SweepCtx, int) int { return 0 })
	}) / 1e3

	// serve: the LRU and the disk store, called directly.
	body := bytes.Repeat([]byte("x"), 64)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = sha256Hex([]byte(fmt.Sprint("rung", i)))
	}
	cache := newCache(8 << 10)
	i := 0
	l["serve.lru_put_ns"] = perCall(n(100_000), func() { cache.Put(keys[i%256], body, "compose", "csv"); i++ })
	l["serve.lru_get_ns"] = perCall(n(100_000), func() { cache.Get(keys[i%256]); i++ })
	dir, err := scratchDir(e, "rung-store")
	if err == nil {
		defer os.RemoveAll(dir)
		var st *Store
		if st, err = openStore(dir); err == nil {
			l["serve.store_put_us"] = perCall(n(1_000), func() {
				if perr := st.Put(keys[i%256], body, "compose", "csv"); perr != nil {
					err = perr
				}
				i++
			}) / 1e3
			l["serve.store_get_us"] = perCall(n(4_000), func() { st.Get(keys[i%256]); i++ }) / 1e3
		}
	}
	rungErr("serve.store", err)

	// cluster: ring lookup, and a verified peer fill over loopback.
	members := []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}
	ring, err := newRing(members[0], members)
	if err == nil {
		l["cluster.ring_owner_ns"] = perCall(n(200_000), func() { ring.Owner(keys[i%256]); i++ })
	}
	rungErr("cluster.ring_owner_ns", err)
	rungErr("cluster.fill_us", fillRung(e, l, n(400)))
}

// fillRung starts one storeless server, materializes one artifact on it
// and fetches it n times the way a peer does (GET /v1/results/{hash},
// body re-hashed against the declared digest).
func fillRung(e *env, l map[string]float64, n int) error {
	reps, err := startReplicas(1, e.short, func(int, []string) ServeOpts { return ServeOpts{Workers: 1} })
	if err != nil {
		return err
	}
	defer stopReplicas(reps)
	cl := newClient()
	r := cl.post(reps[0].addr, []byte(`{"compose":`+rungSpec+`}`))
	if r.err != nil || r.status != 200 {
		return fmt.Errorf("populate: status %d: %v", r.status, r.err)
	}
	f := newFiller(2 * time.Second)
	var ferr error
	l["cluster.fill_us"] = perCall(n, func() {
		if _, err := f.Fetch(context.Background(), reps[0].addr, r.hash); err != nil {
			ferr = err
		}
	}) / 1e3
	return ferr
}
