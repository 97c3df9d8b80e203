package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// --- in-process simd replicas on loopback listeners ---

type simdReplica struct {
	srv  *Server
	hs   *http.Server
	addr string
	dir  string // scratch store directory ("" for none)
	done chan struct{}
}

// startReplicas listens on n loopback ports, then builds one server per
// port from opts(i, addrs) — addresses are known before construction, so
// Self/Peers rings can name them. quiet gives every replica an access
// log that goes nowhere; the test's check path asks for it, because
// without an access log internal/serve annotates one shared record from
// every request goroutine — a write-only data race the race detector
// reports — and the benchmark may not change that package. Measured runs
// keep simd's default, no access log.
func startReplicas(n int, quiet bool, opts func(i int, addrs []string) ServeOpts) ([]*simdReplica, error) {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, open := range lns[:i] {
				open.Close()
			}
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	var reps []*simdReplica
	for i := range lns {
		o := opts(i, addrs)
		if quiet {
			o.AccessLog = io.Discard
		}
		srv, err := newServer(o)
		if err != nil {
			for _, open := range lns[i:] {
				open.Close()
			}
			stopReplicas(reps)
			return nil, err
		}
		r := &simdReplica{srv: srv, hs: &http.Server{Handler: serverHandler(srv)},
			addr: addrs[i], dir: o.StoreDir, done: make(chan struct{})}
		go func(ln net.Listener) {
			r.hs.Serve(ln) // returns ErrServerClosed on shutdown
			close(r.done)
		}(lns[i])
		reps = append(reps, r)
	}
	return reps, nil
}

// stopReplicas shuts every replica down, waits for its listener
// goroutine, and removes its scratch store.
func stopReplicas(reps []*simdReplica) {
	for _, r := range reps {
		r.srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if r.hs.Shutdown(ctx) != nil {
			r.hs.Close()
		}
		cancel()
		<-r.done
		r.srv.Close()
		if r.dir != "" {
			os.RemoveAll(r.dir)
		}
	}
}

// scratchDir makes a store directory under the benchmark's out
// directory: the benchmark writes nowhere else.
func scratchDir(e *env, name string) (string, error) {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.outDir, name+"-")
}

// --- one closed-loop client: its own keep-alive connections ---

type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{Timeout: 60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

type reply struct {
	status int
	body   []byte
	cache  string // X-Cache: hit | disk | miss | shared | peer
	hash   string // X-Config-Hash
	owner  string // X-Owner (clustered only)
	us     float64
	err    error
}

func (c *client) post(addr string, body []byte) reply {
	t0 := time.Now()
	resp, err := c.hc.Post("http://"+addr+"/v1/compose", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{status: resp.StatusCode, body: data, err: err, us: usSince(t0),
		cache: resp.Header.Get("X-Cache"), hash: resp.Header.Get("X-Config-Hash"),
		owner: resp.Header.Get("X-Owner")}
}

// --- keys: small compose specs made from the seed ---

// key is one distinct job: body spells it the short way (defaults
// omitted), alt the long way round (fields reordered, defaults and
// version written out). Canon must map both onto one hash.
type key struct{ body, alt []byte }

// keyGen draws distinct small ping and fetchadd specs from the seed. The
// class of the i-th key is fixed by i — four pings, then one fetchadd
// whose rank count cycles through 8…24 — and only parameters that barely
// change a key's cost are drawn at random, so two seeds' key streams load
// the servers alike. Some 80 k distinct pings and 6.5 k distinct fetchadds
// exist; a timed part would have to post 32 k keys to run out of the
// latter, four times what the reference host manages.
type keyGen struct {
	rng  *rand.Rand
	seen map[string]bool
	n    int
}

func newKeyGen(seed uint64) *keyGen {
	return &keyGen{rng: rand.New(rand.NewSource(int64(seed))), seen: make(map[string]bool)}
}

func (g *keyGen) next() key {
	i := g.n
	g.n++
	for try := 0; ; try++ {
		var id, body, alt string
		// A fetchadd class has 384 variants; once draws keep colliding, the
		// slot falls back to a ping, of which there are plenty.
		if i%5 != 4 || try >= 64 {
			size, iters, mode := 8*(1+g.rng.Intn(8192)), 6+g.rng.Intn(5), []string{"async", "default"}[g.rng.Intn(2)]
			id = fmt.Sprint("ping", size, iters, mode)
			engine := ""
			if mode != "async" { // async is the pattern's default: the short spelling omits it
				engine = fmt.Sprintf(`,"engine":{"mode":%q}`, mode)
			}
			body = fmt.Sprintf(`{"compose":{"phases":[{"pattern":"ping","params":{"iters":%d},`+
				`"sizes":{"kind":"fixed","bytes":%d}%s}]}}`, iters, size, engine)
			alt = fmt.Sprintf(`{"format":"csv","compose":{"version":1,"phases":[{"engine":{"mode":%q},`+
				`"sizes":{"bytes":%d,"kind":"fixed"},"params":{"iters":%d},"pattern":"ping"}]}}`, mode, size, iters)
		} else {
			procs, ops, compute := 8+(i/5)%17, 1+g.rng.Intn(24), g.rng.Intn(2) == 1
			perNode, mode := []int{2, 4, 8, 16}[g.rng.Intn(4)], []string{"default", "async"}[g.rng.Intn(2)]
			id = fmt.Sprint("fetchadd", procs, ops, compute, perNode, mode)
			params := fmt.Sprintf(`"ops_each":%d`, ops)
			if compute { // false is the default
				params += `,"compute":true`
			}
			topo := fmt.Sprintf(`"procs":[%d]`, procs)
			if perNode != 16 { // 16 is the default
				topo += fmt.Sprintf(`,"per_node":%d`, perNode)
			}
			body = fmt.Sprintf(`{"compose":{"phases":[{"pattern":"fetchadd","params":{%s},"topology":{%s},"engine":{"mode":%q}}]}}`,
				params, topo, mode)
			alt = fmt.Sprintf(`{"format":"csv","compose":{"version":1,"phases":[{"engine":{"mode":%q},`+
				`"topology":{"per_node":%d,"procs":[%d]},"params":{"compute":%v,"ops_each":%d},"pattern":"fetchadd"}]}}`,
				mode, perNode, procs, compute, ops)
		}
		if !g.seen[id] {
			g.seen[id] = true
			return key{body: []byte(body), alt: []byte(alt)}
		}
	}
}

// directRender is what a key's spec renders to without simd in the way:
// scenario.Run on a private engine.
func directRender(eng *Engine, k key) ([]byte, error) {
	return specOp(k.spec())(eng, nil, 0, 0)
}

// spec is the bare scenario spec inside the key's compose envelope: body
// always spells it {"compose": <spec>} with nothing after the spec.
func (k key) spec() string {
	return strings.TrimSuffix(strings.TrimPrefix(string(k.body), `{"compose":`), `}`)
}

// digestLine is one key's line of a serve workload's golden digest.
func digestLine(hash string, artifact []byte) string {
	return hash + " " + sha256Hex(artifact) + "\n"
}

// --- serve_read_mix ---

const segments = 10 // the timed part is this many equal stretches of load

// runReadMix is the read path: one simd with a tiny LRU over a disk
// store, 512 keys populated cold in set-up, then a Zipf stream from two
// closed-loop clients. The working set is several times the LRU, so both
// answer tiers (LRU hit, verified disk load) are exercised and the
// simulator is never entered.
func runReadMix(e *env) (*outcome, error) {
	o := newOutcome()
	nKeys, clients := 512, min(2, runtime.NumCPU())
	if e.short {
		nKeys = 24
	}
	dir, err := scratchDir(e, "read-store")
	if err != nil {
		return nil, err
	}
	reps, err := startReplicas(1, e.short, func(int, []string) ServeOpts {
		return ServeOpts{Workers: 2, CacheBytes: 8 << 10, StoreDir: dir}
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	defer stopReplicas(reps)
	addr := reps[0].addr

	// Set-up: the paper probe, then every key posted once, cold, in both
	// spellings (the second must be answered from a cache tier under the
	// same hash).
	perr, err := paperProbe(e, newEngine(1, 0, nil))
	o.attempted++
	if err != nil {
		o.fail("%v", err)
	}
	gen := newKeyGen(e.seed)
	keys := make([]key, nKeys)
	want := make([][]byte, nKeys) // the populate-pass copy every later answer must equal
	cl := newClient()
	var digest bytes.Buffer
	var artifactBytes int
	for i := range keys {
		keys[i] = gen.next()
		r := cl.post(addr, keys[i].body)
		o.attempted++
		if r.err != nil || r.status != http.StatusOK || r.cache != "miss" {
			o.fail("populate key %d: status %d X-Cache %q: %v", i, r.status, r.cache, r.err)
			continue
		}
		want[i] = r.body
		artifactBytes += len(r.body)
		digest.WriteString(digestLine(r.hash, r.body))
		ra := cl.post(addr, keys[i].alt)
		o.attempted++
		if ra.err != nil || ra.hash != r.hash || ra.cache == "miss" || !bytes.Equal(ra.body, r.body) {
			o.fail("populate key %d re-spelled: hash %s (want %s) X-Cache %q: %v", i, ra.hash, r.hash, ra.cache, ra.err)
		}
	}
	cl.close()
	checkGolden(e, o, sha256Hex(digest.Bytes()))
	o.notes = append(o.notes, fmt.Sprintf("%d keys, %d artifact bytes behind an %d-byte LRU; %d closed-loop clients, Zipf s=1.1, 1 request in 5 re-spelled",
		nKeys, artifactBytes, 8<<10, clients))
	if o.failed > 0 {
		return o, nil
	}
	runtime.GC()
	o.e2e["setup_s"] = cpuNow().Seconds()
	o.layer["host.setup_wall_s"] = time.Since(processStart).Seconds()

	// Timed part.
	budget := e.timed()
	if e.trace {
		budget /= 2
	}
	zipfs := make([]*rand.Zipf, clients) // one stream per client, used by that client only
	for c := range zipfs {
		zipfs[c] = rand.NewZipf(rand.New(rand.NewSource(int64(e.seed)*7919+int64(c))), 1.1, 1, uint64(nKeys-1))
	}
	cls := newClients(clients)
	defer closeClients(cls)
	load := func(tr *tracer, budget time.Duration) *loadResult {
		return timedLoad(e, cls, budget, tr, o, func(seg time.Duration) func(c, i int, elapsed time.Duration) *request {
			return func(c, i int, elapsed time.Duration) *request {
				if elapsed >= seg {
					return nil
				}
				k := int(zipfs[c].Uint64())
				body := keys[k].body
				if i%5 == 4 {
					body = keys[k].alt
				}
				return &request{addr: addr, body: body, check: func(r reply) string {
					switch {
					case !bytes.Equal(r.body, want[k]):
						return fmt.Sprintf("key %d: body differs from its populate-pass copy", k)
					case r.cache != "hit" && r.cache != "disk":
						return fmt.Sprintf("key %d: X-Cache %q, want an LRU hit or a disk load", k, r.cache)
					}
					return ""
				}}
			}
		})
	}
	rss := startRSSSampler()
	steal0, t0 := stealNow(), time.Now()
	res := load(nil, budget)
	o.layer["host.steal_pct"] = stealPct(steal0, t0)
	o.e2e["rss_mb"], o.layer["host.peak_rss_mb"] = rss.stop()
	res.report(o, perr)
	if e.trace {
		tres := load(e.tr, budget)
		traceServe(e, o, res, tres, keys[0].spec())
	}
	return o, nil
}

// --- the closed-loop load generator both serve workloads share ---

type sample struct {
	us    float64
	class string // X-Cache
	note  string // clustered replies: "owner" or "proxied"
}

// stretch is one uninterrupted stretch of a load.
type stretch struct {
	n         int // requests completed
	wall, cpu time.Duration
	p50, tail float64 // latency, microseconds
	refUS     float64 // the yardstick's CPU time right after the stretch; 0 when it was not run
}

type loadResult struct {
	samples   []sample // a timed load keeps them only in a traced run: half a million would show in rss_mb
	stretches []stretch
	allocs    uint64
	n429      int
}

// request is one client's next request: where to post what, and a check
// that returns "" or why the reply is wrong.
type request struct {
	addr  string
	body  []byte
	check func(reply) string
}

// newClients makes n closed-loop clients, each with its own keep-alive
// connections.
func newClients(n int) []*client {
	cls := make([]*client, n)
	for i := range cls {
		cls[i] = newClient()
	}
	return cls
}

func closeClients(cls []*client) {
	for _, c := range cls {
		c.close()
	}
}

// closedLoop runs one stretch of load: one goroutine per client, each
// asking next for its i-th request, given the time since the stretch
// began, and sending the following one only after the reply arrived.
// next returning nil ends that client.
func closedLoop(cls []*client, tr *tracer, o *outcome, next func(c, i int, elapsed time.Duration) *request) *loadResult {
	clients := len(cls)
	per := make([][]sample, clients)
	fails := make([][]string, clients)
	n429 := make([]int, clients)
	var wg sync.WaitGroup
	root := tr.begin("load", 0, 0)
	m0, c0, t0 := mallocs(), cpuNow(), time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := cls[c]
			for i := 0; ; i++ {
				req := next(c, i, time.Since(t0))
				if req == nil {
					return
				}
				opID := c + 1 + i*clients
				id := tr.begin("http.POST /v1/compose", root, opID)
				r := cl.post(req.addr, req.body)
				tr.end(id, r.cache)
				why := ""
				switch {
				case r.err != nil:
					why = r.err.Error()
				case r.status == http.StatusTooManyRequests:
					n429[c]++
					why = "429: queue full"
				case r.status != http.StatusOK:
					why = fmt.Sprintf("status %d: %s", r.status, bytes.TrimSpace(r.body))
				default:
					why = req.check(r)
				}
				if why != "" {
					fails[c] = append(fails[c], why)
				}
				note := ""
				if r.owner != "" { // clustered: did the addressed replica own the key?
					note = "owner"
					if r.owner != req.addr {
						note = "proxied"
					}
				}
				per[c] = append(per[c], sample{us: r.us, class: r.cache, note: note})
			}
		}(c)
	}
	wg.Wait()
	st := stretch{wall: time.Since(t0), cpu: cpuNow() - c0}
	res := &loadResult{allocs: mallocs() - m0}
	tr.end(root, "")
	var us []float64
	for c := range per {
		res.samples = append(res.samples, per[c]...)
		res.n429 += n429[c]
		o.attempted += len(per[c])
		for _, why := range fails[c] {
			o.fail("%s", why)
		}
		for _, s := range per[c] {
			us = append(us, s.us)
		}
	}
	st.n, st.p50, st.tail = len(us), median(us), percentile(us, tailP)
	res.stretches = []stretch{st}
	return res
}

// timedLoad runs the timed part of a serve workload: `segments`
// stretches of budget/segments each, the yardstick after every one —
// closed-loop clients simply hold their next request while it runs.
func timedLoad(e *env, cls []*client, budget time.Duration, tr *tracer, o *outcome,
	stretchOf func(seg time.Duration) func(c, i int, elapsed time.Duration) *request) *loadResult {
	res := &loadResult{}
	for s := 0; s < segments; s++ {
		part := closedLoop(cls, tr, o, stretchOf(budget/segments))
		ref, err := e.ys.measure()
		if err != nil {
			o.attempted++
			o.fail("%v", err)
			return res
		}
		part.stretches[0].refUS = ref
		if e.trace {
			res.samples = append(res.samples, part.samples...)
		}
		res.stretches = append(res.stretches, part.stretches...)
		res.allocs += part.allocs
		res.n429 += part.n429
	}
	return res
}

// tailP is the percentile host.op_tail_us reports on the serve
// workloads: the highest of the usual ones that leaves ten samples beyond
// it in every stretch of both workloads (serve_write_mix has some 800
// requests a stretch) — and, on the read mix, half as noisy from run to
// run as the 99th.
const tailP = 0.95

// report fills the end-to-end metrics and the host.* metrics from an
// untraced timed load. Every figure is taken per stretch and the middle
// of the stretches reported: a shared sandbox runs one stretch in a few
// slow.
func (res *loadResult) report(o *outcome, paperErr float64) {
	n := 0
	for _, st := range res.stretches {
		n += st.n
	}
	if n == 0 {
		o.attempted++
		o.fail("no request completed in the timed part")
		return
	}
	var cpus, norms, p50s, tails, rates []float64
	for _, st := range res.stretches {
		if st.n == 0 {
			continue
		}
		cpu := float64(st.cpu.Nanoseconds()) / 1e3 / float64(st.n)
		cpus = append(cpus, cpu)
		norms = append(norms, cpu/st.refUS*refNominalUS)
		p50s = append(p50s, st.p50)
		tails = append(tails, st.tail)
		rates = append(rates, float64(st.n)/st.wall.Seconds())
	}
	o.samples["op_cost_us"] = n
	o.samples["host.op_p50_us"] = n
	o.notes = append(o.notes, fmt.Sprintf("one operation = one request; %d timed in %d stretches; CPU us per request by stretch: %.1f, the yardstick after each, CPU ms: %.0f; "+
		"host.op_tail_us is the %gth percentile, about %.0f samples beyond it in a stretch",
		n, len(cpus), cpus, scale(res.refs(), 1e-3), 100*tailP, (1-tailP)*float64(n)/float64(len(cpus))))
	o.e2e["op_cost_us"] = midmean(norms)
	o.e2e["allocs_per_op"] = float64(res.allocs) / float64(n)
	o.e2e["paper_err_max_pct"] = paperErr
	o.layer["host.op_cpu_us"] = midmean(cpus)
	o.layer["host.ref_us"] = median(res.refs())
	o.layer["host.op_p50_us"] = median(p50s)
	o.layer["host.op_tail_us"] = median(tails)
	o.layer["host.ops_per_s"] = median(rates)
}

// refs lists the yardstick's CPU time after each stretch.
func (res *loadResult) refs() (us []float64) {
	for _, st := range res.stretches {
		us = append(us, st.refUS)
	}
	return us
}

// classMedian is the median latency of the samples in one X-Cache class
// (and, when note is set, with that note).
func (res *loadResult) classMedian(class, note string) (float64, int) {
	var us []float64
	for _, s := range res.samples {
		if (class == "" || s.class == class) && (note == "" || s.note == note) {
			us = append(us, s.us)
		}
	}
	return median(us), len(us)
}

// traceServe fills the per-layer metrics of a serve workload from its
// untraced load res and its traced load tres.
func traceServe(e *env, o *outcome, res, tres *loadResult, spec string) {
	l := o.layer
	n := float64(len(tres.samples))
	if n == 0 || len(res.samples) == 0 {
		return
	}
	untraced, _ := res.classMedian("", "")
	traced, _ := tres.classMedian("", "")
	l["trace_overhead_pct"] = 100 * (traced/untraced - 1)
	o.samples["trace_overhead_pct"] = len(tres.samples)

	counts := make(map[string]int)
	for _, s := range tres.samples {
		counts[s.class]++
	}
	hit, _ := tres.classMedian("hit", "")
	disk, _ := tres.classMedian("disk", "")
	cold, _ := tres.classMedian("miss", "")
	l["serve.http_hit_us"] = hit
	l["serve.http_disk_us"] = disk
	l["serve.http_cold_ms"] = cold / 1e3
	l["serve.hit_ratio"] = float64(counts["hit"]) / n
	l["serve.disk_ratio"] = float64(counts["disk"]) / n
	l["serve.exec_count"] = float64(counts["miss"])
	l["serve.retry_429"] = float64(tres.n429)
	l["serve.allocs_per_req"] = float64(tres.allocs) / n

	runRungs(e, o, spec)
	if counts["hit"] > 0 {
		l["serve.http_overhead_us"] = hit - (l["scenario.canon_hash_ns"]+l["serve.lru_get_ns"])/1e3
	}

	// Ladder: what the rungs below the HTTP path explain of the traced
	// requests — canon + hash on every request, the LRU probe, the disk
	// load or the store write by class. The residual is HTTP, routing,
	// queueing and, on cold requests, the simulation itself.
	var total float64
	for _, s := range tres.samples {
		total += s.us
	}
	explained := n*(l["scenario.canon_hash_ns"]+l["serve.lru_get_ns"])/1e3 +
		float64(counts["disk"])*l["serve.store_get_us"] +
		float64(counts["miss"])*(l["serve.store_put_us"]+l["serve.lru_put_ns"]/1e3)
	l["ladder.residual_share"] = 1 - explained/total

	classes := make([]string, 0, len(counts))
	for c := range counts {
		classes = append(classes, fmt.Sprintf("%s=%d", c, counts[c]))
	}
	sort.Strings(classes)
	o.notes = append(o.notes, "traced requests by X-Cache: "+strings.Join(classes, " "))
}

// --- serve_write_mix ---

// runWriteMix is the write path beside reads: three replicas on a
// consistent-hash ring, each with its own disk store. Pass 1 (timed)
// posts distinct keys once each, round-robin over the replicas, so two
// in three are proxied to the ring owner, which probes its peers, queues,
// executes, renders, fills its LRU and writes through to disk. Pass 2
// posts every key again, to a non-owner replica and to the owner, and
// must get pass 1's bytes back from a cache tier.
func runWriteMix(e *env) (*outcome, error) {
	o := newOutcome()
	const nReplicas = 3
	const maxKeys = 60_000 // the key space holds some 80 k distinct specs
	clients, minKeys, sampled := min(2, runtime.NumCPU()), 128, 32
	if e.short {
		minKeys, sampled = 12, 4
	}
	dirs := make([]string, nReplicas)
	for i := range dirs {
		d, err := scratchDir(e, fmt.Sprintf("write-store%d", i))
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(d)
		dirs[i] = d
	}
	reps, err := startReplicas(nReplicas, e.short, func(i int, addrs []string) ServeOpts {
		return ServeOpts{Workers: 1, StoreDir: dirs[i], Self: addrs[i], Peers: addrs}
	})
	if err != nil {
		return nil, err
	}
	defer stopReplicas(reps)
	replicaOf := make(map[string]int, nReplicas)
	for i, r := range reps {
		replicaOf[r.addr] = i
	}

	direct := newEngine(1, 0, nil)
	perr, err := paperProbe(e, direct)
	o.attempted++
	if err != nil {
		o.fail("%v", err)
	}

	// Keys are made in order from the seed and claimed one at a time;
	// posted[i] is what pass 1 got back for key i.
	type posting struct {
		body  []byte
		hash  string
		owner int
	}
	var mu sync.Mutex
	gen := newKeyGen(e.seed)
	var keys []key
	var posted []*posting
	claim := func() (int, key) {
		mu.Lock()
		defer mu.Unlock()
		keys = append(keys, gen.next())
		posted = append(posted, nil)
		return len(keys) - 1, keys[len(keys)-1]
	}
	// pass1 posts new keys until budget has passed and at least floor keys
	// exist (the golden digest covers the first minKeys), or the key
	// space is used up.
	cls := newClients(clients)
	defer closeClients(cls)
	// pass1 is one stretch of that: seg is its length.
	pass1 := func(seg time.Duration, floor int) func(c, i int, elapsed time.Duration) *request {
		return func(c, i int, elapsed time.Duration) *request {
			mu.Lock()
			n := len(keys)
			mu.Unlock()
			if (elapsed >= seg && n >= floor) || n >= maxKeys {
				return nil
			}
			k, ky := claim()
			return &request{addr: reps[k%nReplicas].addr, body: ky.body, check: func(r reply) string {
				owner, ok := replicaOf[r.owner]
				if !ok || r.cache != "miss" {
					return fmt.Sprintf("key %d: X-Owner %q X-Cache %q, want a cold execution on a ring member", k, r.owner, r.cache)
				}
				mu.Lock()
				posted[k] = &posting{body: r.body, hash: r.hash, owner: owner}
				mu.Unlock()
				return ""
			}}
		}
	}
	timed := func(tr *tracer, budget time.Duration) *loadResult {
		return timedLoad(e, cls, budget, tr, o, func(seg time.Duration) func(c, i int, elapsed time.Duration) *request {
			return pass1(seg, 0)
		})
	}
	// Set-up ends with an untimed stretch of the same traffic, so that
	// connections, engine pools and the heap are warm when timing starts.
	closedLoop(cls, nil, o, pass1(0, minKeys))
	runtime.GC()
	o.e2e["setup_s"] = cpuNow().Seconds()
	o.layer["host.setup_wall_s"] = time.Since(processStart).Seconds()

	budget := e.timed()
	if e.trace {
		budget /= 2
	}
	rss := startRSSSampler()
	steal0, t0 := stealNow(), time.Now()
	res := timed(nil, budget)
	o.layer["host.steal_pct"] = stealPct(steal0, t0)
	o.e2e["rss_mb"], o.layer["host.peak_rss_mb"] = rss.stop()
	res.report(o, perr)
	var tres *loadResult
	if e.trace {
		tres = timed(e.tr, budget)
	}

	// Pass 2: two requests per key — through a replica that neither owns
	// the key nor took it in pass 1 where there is one, and straight to
	// the owner.
	var cursor int
	pass2 := closedLoop(cls, nil, o, func(c, i int, elapsed time.Duration) *request {
		var item, k int
		var p *posting
		for p == nil { // skip keys pass 1 already counted as failed
			mu.Lock()
			item = cursor
			cursor++
			mu.Unlock()
			if k = item / 2; k >= len(keys) {
				return nil
			}
			p = posted[k]
		}
		target := p.owner
		if item%2 == 0 {
			target = (p.owner + 1) % nReplicas
			if target == k%nReplicas {
				target = (p.owner + 2) % nReplicas
			}
		}
		return &request{addr: reps[target].addr, body: keys[k].alt, check: func(r reply) string {
			switch {
			case !bytes.Equal(r.body, p.body):
				return fmt.Sprintf("key %d: pass-2 body differs from pass 1", k)
			case r.hash != p.hash || (r.cache != "hit" && r.cache != "disk"):
				return fmt.Sprintf("key %d: pass 2 hash %s X-Cache %q, want %s from a cache tier", k, r.hash, r.cache, p.hash)
			}
			return ""
		}}
	})

	// Sampled keys against a direct scenario.Run render; the first
	// minKeys artifacts are the golden digest.
	rng := rand.New(rand.NewSource(int64(e.seed)))
	for s := 0; s < sampled; s++ {
		k := rng.Intn(len(keys))
		o.attempted++
		out, err := directRender(direct, keys[k])
		if err != nil || posted[k] == nil || !bytes.Equal(out, posted[k].body) {
			o.fail("key %d: served bytes differ from a direct scenario.Run render: %v", k, err)
		}
	}
	var digest bytes.Buffer
	for k := 0; k < minKeys && k < len(posted); k++ {
		if posted[k] != nil {
			digest.WriteString(digestLine(posted[k].hash, posted[k].body))
		}
	}
	checkGolden(e, o, sha256Hex(digest.Bytes()))
	o.notes = append(o.notes, fmt.Sprintf("%d distinct keys posted over %d replicas by %d closed-loop clients; pass 2 re-read each twice",
		len(keys), nReplicas, clients))

	if e.trace && tres != nil {
		traceServe(e, o, res, tres, keys[0].spec())
		l := o.layer
		all := append(append([]sample(nil), res.samples...), tres.samples...)
		proxied := 0
		for _, s := range all {
			if s.note == "proxied" {
				proxied++
			}
		}
		l["cluster.proxied_share"] = float64(proxied) / float64(len(all))
		viaPeer, nPeer := pass2.classMedian("", "proxied")
		viaOwner, nOwner := pass2.classMedian("", "owner")
		l["cluster.proxy_hop_us"] = viaPeer - viaOwner
		o.samples["cluster.proxy_hop_us"] = min(nPeer, nOwner)
	}
	return o, nil
}
