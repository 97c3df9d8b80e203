//go:build unix

package main

// main_test.go drives simd the way an operator does: as a process. The
// test binary re-executes itself as simd (TestMain), so there is no build
// step, the child runs whatever instrumentation the test run asked for
// (-race included), and every address is one the kernel chose. What is
// checked here is only what takes a process to show — flags becoming
// Options, signals, exit statuses, SIGKILL, a second process over a dead
// one's store; what the handlers answer is internal/serve's own tests'.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
)

// childEnv marks the re-executed test binary: with it set the process is
// simd, with the arguments it was given.
const childEnv = "SIMD_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stderr))
	}
	os.Exit(m.Run())
}

const (
	anyPort     = "127.0.0.1:0"
	waitTimeout = 60 * time.Second // one wait on a child: generous, -race on a busy 2-core host is slow
)

var (
	client   = &http.Client{Timeout: 2 * time.Minute}
	listenRE = regexp.MustCompile(`(?m)^simd: listening on (\S+)$`)
)

// proc is one simd child process.
type proc struct {
	t      *testing.T
	cmd    *exec.Cmd
	bound  chan struct{} // closed once the "listening on" line was seen
	exited chan struct{} // closed once the child has been reaped

	mu     sync.Mutex
	stderr bytes.Buffer // everything the child has written
	addr   string       // the bound address, from the "listening on" line
}

// Write collects the child's stderr and learns the address it bound.
func (p *proc) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stderr.Write(b)
	if p.addr == "" {
		if m := listenRE.FindSubmatch(p.stderr.Bytes()); m != nil {
			p.addr = string(m[1])
			close(p.bound)
		}
	}
	return len(b), nil
}

func (p *proc) Stderr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stderr.String()
}

// spawn starts simd with args and nothing more. The cleanup it registers
// is the leak check: no child outlives the test that started it.
func spawn(t *testing.T, args ...string) *proc {
	t.Helper()
	p := &proc{t: t, bound: make(chan struct{}), exited: make(chan struct{})}
	p.cmd = exec.Command(os.Args[0], args...)
	p.cmd.Env = append(os.Environ(), childEnv+"=1")
	p.cmd.Stderr = p
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("start simd %v: %v", args, err)
	}
	go func() {
		p.cmd.Wait() // how it ended is read from ProcessState
		close(p.exited)
	}()
	t.Cleanup(func() {
		select {
		case <-p.exited:
		default:
			p.cmd.Process.Kill()
		}
		select {
		case <-p.exited:
		case <-time.After(waitTimeout):
			t.Errorf("simd %v (pid %d) is still alive after the test", args, p.cmd.Process.Pid)
		}
		if t.Failed() {
			t.Logf("simd %v stderr:\n%s", args, p.Stderr())
		}
	})
	return p
}

// listening waits for the child to announce its address; false means it
// exited without binding one.
func (p *proc) listening() bool {
	p.t.Helper()
	select {
	case <-p.bound:
		return true
	case <-p.exited:
		return false
	case <-time.After(waitTimeout):
		p.t.Fatalf("simd neither listened nor exited:\n%s", p.Stderr())
		return false
	}
}

// healthy waits for /healthz to answer 200 (with a store, that is the end
// of the start-up scan).
func (p *proc) healthy() {
	p.t.Helper()
	for deadline := time.Now().Add(waitTimeout); ; time.Sleep(5 * time.Millisecond) {
		resp, err := client.Get("http://" + p.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			p.t.Fatalf("simd at %s never healthy (%v):\n%s", p.addr, err, p.Stderr())
		}
	}
}

// start is spawn for a simd that is expected to serve: it returns once
// the child is listening and healthy.
func start(t *testing.T, args ...string) *proc {
	t.Helper()
	p := spawn(t, args...)
	if !p.listening() {
		t.Fatalf("simd %v exited before listening:\n%s", args, p.Stderr())
	}
	p.healthy()
	return p
}

func (p *proc) signal(sig syscall.Signal) {
	p.t.Helper()
	if err := p.cmd.Process.Signal(sig); err != nil {
		p.t.Fatalf("signal %v: %v", sig, err)
	}
}

// wait blocks until the child is gone and returns how it went.
func (p *proc) wait() *os.ProcessState {
	p.t.Helper()
	select {
	case <-p.exited:
	case <-time.After(waitTimeout):
		p.t.Fatalf("simd (pid %d) did not exit:\n%s", p.cmd.Process.Pid, p.Stderr())
	}
	return p.cmd.ProcessState
}

// Term sends SIGTERM and returns the exit status (-1: died by a signal).
func (p *proc) Term() int {
	p.t.Helper()
	p.signal(syscall.SIGTERM)
	return p.wait().ExitCode()
}

// Kill is SIGKILL; it returns once the child is reaped. Safe off the
// test goroutine.
func (p *proc) Kill() {
	p.cmd.Process.Kill()
	<-p.exited
}

// job is one submission: the endpoint and the body.
type job struct{ path, body string }

// jobs is the key set the load runs over: millisecond-sized named
// scenarios plus the composed two-phase example, so the compose endpoint
// (and its proxy hop) is under the same load. jobs[0] is the hot key.
func jobs(t *testing.T) []job {
	t.Helper()
	spec, err := os.ReadFile(filepath.Join("..", "..", "examples", "halo_fetchadd_linkdown.json"))
	if err != nil {
		t.Fatal(err)
	}
	js := []job{{"/v1/compose", `{"compose":` + string(spec) + `}`}}
	for k := 1; k <= 2; k++ {
		js = append(js,
			job{"/v1/run", fmt.Sprintf(`{"scenario":"micro","params":{"sizes":[16,256],"iters":%d}}`, k)},
			job{"/v1/run", fmt.Sprintf(`{"scenario":"amo","params":{"procs":[2,8],"ops_each":%d}}`, k)},
			job{"/v1/run", fmt.Sprintf(`{"scenario":"fig9","params":{"procs":[2,16],"ops_each":%d}}`, k)})
	}
	// The hot key is a named one: most of the traffic, and the kill,
	// should land on the plain path.
	js[0], js[1] = js[1], js[0]
	return js
}

// post is one attempt at one replica: the response and its whole body.
func post(addr string, j job) (*http.Response, []byte, error) {
	resp, err := client.Post("http://"+addr+j.path, "application/json", strings.NewReader(j.body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

// request posts j to addrs[from], addrs[from+1], … until one of them
// answers for the cluster: a transport error, a 502 or a 503 moves on to
// the next replica (one may be dead or draining), a 429 waits for the
// admission queue. This is all a client of the ring has to do to ride
// through a member's death.
func request(addrs []string, from int, j job) (*http.Response, []byte, error) {
	var last error
	for deadline := time.Now().Add(waitTimeout); time.Now().Before(deadline); from++ {
		addr := addrs[from%len(addrs)]
		resp, body, err := post(addr, j)
		switch {
		case err != nil:
			last = err
		case resp.StatusCode == http.StatusBadGateway, resp.StatusCode == http.StatusServiceUnavailable:
			last = fmt.Errorf("HTTP %d from %s", resp.StatusCode, addr)
		case resp.StatusCode == http.StatusTooManyRequests:
			last = fmt.Errorf("HTTP 429 from %s", addr)
			time.Sleep(50 * time.Millisecond)
		default:
			return resp, body, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil, nil, fmt.Errorf("no replica of %v served %s: %v", addrs, j.body, last)
}

// check is one request of the load: it must be a 200 carrying exactly
// want. It returns the response for its headers, nil if none came.
func check(t *testing.T, addrs []string, from int, j job, want []byte) *http.Response {
	t.Helper()
	resp, body, err := request(addrs, from, j)
	switch {
	case err != nil:
		t.Error(err)
		return nil
	case resp.StatusCode != http.StatusOK:
		t.Errorf("%s via %s: HTTP %d: %s", j.body, resp.Header.Get("X-Served-By"), resp.StatusCode, body)
	case !bytes.Equal(body, want):
		t.Errorf("%s via %s (X-Cache %s): %d bytes differ from the reference's %d",
			j.body, resp.Header.Get("X-Served-By"), resp.Header.Get("X-Cache"), len(body), len(want))
	}
	return resp
}

// load is the closed loop: clients × each requests, a share hot of them
// for js[0] and the rest uniform over js, every request starting at the
// next replica in turn; before is called ahead of each request with its
// number. It returns how many answers came from a cache tier.
func load(t *testing.T, addrs []string, js []job, want [][]byte, clients, each int, hot float64, before func(n int)) (cached int) {
	t.Helper()
	var sent, hits atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			for i := 0; i < each; i++ {
				n := int(sent.Add(1))
				before(n)
				k := 0
				if rng.Float64() >= hot {
					k = rng.Intn(len(js))
				}
				if resp := check(t, addrs, n, js[k], want[k]); resp != nil {
					switch resp.Header.Get("X-Cache") {
					case "hit", "disk", "peer":
						hits.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	return int(hits.Load())
}

// metrics scrapes addr's /metrics into name → value, label sets summed.
func metrics(t *testing.T, addr string) map[string]int64 {
	t.Helper()
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		name, _, _ := strings.Cut(f[0], "{")
		v, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", sc.Text(), err)
		}
		out[name] += v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// follow attaches to a run's SSE stream and delivers every event's name;
// the channel closes when the server ends the stream.
func follow(t *testing.T, url string) <-chan string {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	names := make(chan string)
	go func() {
		defer close(names)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
				names <- name
			}
		}
	}()
	return names
}

// running waits for simd to list a run in state "running" and returns
// its id.
func running(t *testing.T, p *proc) string {
	t.Helper()
	for deadline := time.Now().Add(waitTimeout); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		resp, err := client.Get("http://" + p.addr + "/v1/runs")
		if err != nil {
			t.Fatal(err)
		}
		var runs []serve.RunInfo
		err = json.NewDecoder(resp.Body).Decode(&runs)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range runs {
			if r.State == serve.RunRunning {
				return r.ID
			}
		}
	}
	t.Fatal("no run ever reached state running")
	return ""
}

// The serving gate and its end: a solo simd at a non-default execution
// plan takes a skewed closed-loop load with no error, every answer equal
// to its cold copy and most of them from the cache; then SIGTERM arrives
// with a job in flight and an SSE follower attached. The follower is told
// `drain`, a new job is refused with 503, the request in flight gets its
// artifact, and the process exits 0 having said "drained".
func TestLoadThenSIGTERMDrains(t *testing.T) {
	p := start(t, "-addr", anyPort, "-sweep-workers", "4", "-shards", "4")
	addrs := []string{p.addr}

	js := jobs(t)
	cold := make([][]byte, len(js))
	for k, j := range js {
		resp, body, err := request(addrs, 0, j)
		if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" || len(body) == 0 {
			t.Fatalf("cold %s: %v, response %+v, %d bytes", j.body, err, resp, len(body))
		}
		cold[k] = body
	}
	const clients, each = 4, 50
	cached := load(t, addrs, js, cold, clients, each, 0.8, func(int) {})
	if cached < clients*each/2 {
		t.Errorf("%d of %d skewed requests were cache hits, want at least half", cached, clients*each)
	}

	// A quarter second of simulation, several under -race: in flight
	// for as long as the rest of the test needs it to be.
	const slow = `{"scenario":"fig9","params":{"procs":[64],"ops_each":1000}}`
	inflight := make(chan error, 1)
	go func() {
		resp, body, err := post(p.addr, job{"/v1/run", slow})
		if err == nil && (resp.StatusCode != http.StatusOK || len(body) == 0) {
			err = fmt.Errorf("HTTP %d, %d bytes: %s", resp.StatusCode, len(body), body)
		}
		inflight <- err
	}()
	id := running(t, p)

	// A connection opened now and used after the drain began: the listener
	// is closed by then, but http.Server.Shutdown leaves a connection that
	// has not sent its first request alone for five seconds.
	late, err := net.Dial("tcp", p.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()

	events := follow(t, "http://"+p.addr+"/v1/runs/"+id+"/events")
	if first := <-events; first != "hello" {
		t.Fatalf("stream began with %q, want hello", first)
	}

	p.signal(syscall.SIGTERM)
	last := ""
	for name := range events {
		last = name
	}
	if last != "drain" {
		t.Errorf("the follower's stream ended with %q, want drain", last)
	}

	fmt.Fprintf(late, "POST /v1/run HTTP/1.1\r\nHost: simd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(js[0].body), js[0].body)
	resp, err := http.ReadResponse(bufio.NewReader(late), nil)
	if err != nil {
		t.Fatalf("a job posted during the drain: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("a job posted during the drain: HTTP %d, Retry-After %q; want 503 and a hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	if err := <-inflight; err != nil {
		t.Errorf("the request in flight at SIGTERM did not get its artifact: %v", err)
	}
	if code := p.wait().ExitCode(); code != 0 {
		t.Errorf("exit status %d after SIGTERM, want 0", code)
	}
	if !strings.HasSuffix(p.Stderr(), "simd: draining\nsimd: drained\n") {
		t.Errorf("stderr does not end with the drain report:\n%s", p.Stderr())
	}
}

// The first signal asks for a drain and gives the signal back: while the
// drain waits for a long job, a second one ends the process by its
// default action instead of waiting out -drain-timeout.
func TestSecondSignalEndsAStuckDrain(t *testing.T) {
	p := start(t, "-addr", anyPort)
	// Over ten seconds of simulation that nobody will wait for.
	const long = `{"scenario":"fig9","params":{"procs":[128,192,256],"ops_each":1000}}`
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		post(p.addr, job{"/v1/run", long}) // ends when simd does
	}()
	defer func() { <-gone }()
	running(t, p)

	p.signal(syscall.SIGTERM)
	for deadline := time.Now().Add(waitTimeout); !strings.Contains(p.Stderr(), "simd: draining\n"); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no drain after SIGTERM:\n%s", p.Stderr())
		}
	}
	p.signal(syscall.SIGTERM)
	st := p.wait()
	if ws := st.Sys().(syscall.WaitStatus); !ws.Signaled() || ws.Signal() != syscall.SIGTERM {
		t.Errorf("after a second SIGTERM simd ended with %v, want death by SIGTERM", st)
	}
	if strings.Contains(p.Stderr(), "drained") {
		t.Errorf("simd claims a finished drain:\n%s", p.Stderr())
	}
}

// A command line simd cannot run is exit 2 and a message; a port it
// cannot have is exit 1 — and in neither case does it claim to listen.
func TestBadCommandLineAndBusyPort(t *testing.T) {
	busy, err := net.Listen("tcp", anyPort)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-nope"}, 2},
		{[]string{"-workers", "many"}, 2},
		{[]string{"-addr", anyPort, "-shards", "-2"}, 2},
		{[]string{"-addr", anyPort, "-peers", "127.0.0.1:1,127.0.0.1:2"}, 2}, // no -self
		{[]string{"-addr", busy.Addr().String()}, 1},
	} {
		p := spawn(t, tc.args...)
		code := p.wait().ExitCode()
		if stderr := p.Stderr(); code != tc.code || stderr == "" || strings.Contains(stderr, "listening") {
			t.Errorf("simd %v: exit %d, stderr %q; want exit %d, a message, and no claim to listen",
				tc.args, code, stderr, tc.code)
		}
	}
}

// freeAddrs asks the kernel for n loopback ports and gives them back —
// all at the end, so that the n are distinct.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", anyPort)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs
}

// startRing starts one replica per plan (a replica's own extra flags),
// each with the full peer list and the store directory of its index.
// Replicas must be told each other's addresses before any of them runs,
// so they cannot bind port 0: the ports are taken from the kernel and
// released just before. If somebody else gets one in between, that
// replica exits without listening and the ring is started over.
func startRing(t *testing.T, stores []string, plans [][]string) []*proc {
	t.Helper()
	for attempt := 0; attempt < 3; attempt++ {
		addrs := freeAddrs(t, len(plans))
		ring := make([]*proc, len(plans))
		for i, plan := range plans {
			ring[i] = spawn(t, append([]string{"-addr", addrs[i], "-self", addrs[i],
				"-peers", strings.Join(addrs, ","), "-store-dir", stores[i]}, plan...)...)
		}
		up := 0
		for _, p := range ring {
			if p.listening() {
				up++
			}
		}
		if up == len(ring) {
			for _, p := range ring {
				p.healthy()
			}
			return ring
		}
		for _, p := range ring {
			t.Logf("ring attempt %d: %s", attempt, p.Stderr())
			p.Kill()
		}
	}
	t.Fatal("could not bind a ring in three attempts")
	return nil
}

// The cluster drill, in four acts.
//
//  1. Reference: an in-process solo server runs every key cold. Those are
//     the bytes everything after must reproduce.
//  2. Failover: three simd replicas, one per execution plan, with stores,
//     under four closed-loop clients and a hot key; the hot key's owner
//     (X-Owner) is SIGKILLed mid-run. No request fails once the client
//     has rotated to the next replica, no byte differs.
//  3. Survivors: every key from every survivor; then a key the dead
//     member owns and nobody has asked for — the first survivor has to run
//     it cold, the second must fill from the first. Peer fills and proxied
//     jobs are on the survivors' /metrics, and both drain to exit 0.
//  4. Restart: a new simd over a survivor's store serves every key that
//     store holds through /v1/results/{hash}, byte-identical, from disk,
//     executing nothing — and has cleared the temp file a writer killed
//     mid-Put would have left there.
func TestClusterDrill(t *testing.T) {
	js := jobs(t)

	// Act 1.
	solo := serve.New(serve.Options{})
	ref := httptest.NewServer(solo.Handler())
	defer solo.Close()
	defer ref.Close()
	refAddr := []string{strings.TrimPrefix(ref.URL, "http://")}
	byHash := map[string][]byte{} // config hash → reference artifact
	reference := func(j job) []byte {
		resp, body, err := request(refAddr, 0, j)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("reference run of %s: %v, %+v", j.body, err, resp)
		}
		byHash[resp.Header.Get("X-Config-Hash")] = body
		return body
	}
	want := make([][]byte, len(js))
	for k, j := range js {
		want[k] = reference(j)
	}

	// Act 2. Worker and shard counts are execution knobs: three replicas
	// at three plans still serve one set of bytes.
	root := t.TempDir()
	stores := []string{filepath.Join(root, "r0"), filepath.Join(root, "r1"), filepath.Join(root, "r2")}
	ring := startRing(t, stores, [][]string{
		{"-sweep-workers", "1", "-shards", "1"},
		{"-sweep-workers", "4", "-shards", "1"},
		{"-sweep-workers", "1", "-shards", "4"},
	})
	var addrs []string
	byAddr := map[string]*proc{}
	for _, p := range ring {
		addrs = append(addrs, p.addr)
		byAddr[p.addr] = p
	}
	var victim *proc
	for k, j := range js {
		resp := check(t, addrs, k, j, want[k])
		if resp != nil && k == 0 {
			victim = byAddr[resp.Header.Get("X-Owner")]
		}
	}
	if victim == nil {
		t.Fatal("the hot key's X-Owner names no replica of the ring")
	}
	const clients, each, killAt = 4, 40, 40
	load(t, addrs, js, want, clients, each, 0.7, func(n int) {
		if n == killAt {
			victim.Kill()
		}
	})
	if t.Failed() {
		t.FailNow()
	}

	// Act 3.
	var survivors []*proc
	for _, p := range ring {
		if p != victim {
			survivors = append(survivors, p)
		}
	}
	for _, p := range survivors {
		for k, j := range js {
			check(t, []string{p.addr}, 0, j, want[k])
		}
	}
	first, second := []string{survivors[0].addr}, []string{survivors[1].addr}
	filled := false
	for iters := 3; iters <= 100 && !filled; iters++ {
		j := job{"/v1/run", fmt.Sprintf(`{"scenario":"micro","params":{"sizes":[16,256],"iters":%d}}`, iters)}
		artifact := reference(j)
		resp := check(t, first, 0, j, artifact)
		if resp == nil || resp.Header.Get("X-Owner") != victim.addr {
			continue
		}
		filled = true
		if src := resp.Header.Get("X-Cache"); src != "miss" {
			t.Errorf("the dead member's unseen key at the first survivor: X-Cache %q, want miss", src)
		}
		if resp := check(t, second, 0, j, artifact); resp != nil && resp.Header.Get("X-Cache") != "peer" {
			t.Errorf("the same key at the second survivor: X-Cache %q, want peer", resp.Header.Get("X-Cache"))
		}
	}
	if !filled {
		t.Error("no micro config in 98 hashed onto the dead member")
	}
	var fills, proxied int64
	for _, p := range survivors {
		m := metrics(t, p.addr)
		fills += m["serve_peer_fills"]
		proxied += m["serve_proxied_jobs"]
	}
	if fills == 0 || proxied == 0 {
		t.Errorf("survivors: serve_peer_fills %d, serve_proxied_jobs %d; want both above 0", fills, proxied)
	}
	for _, p := range survivors {
		if code := p.Term(); code != 0 {
			t.Errorf("survivor %s: exit status %d after SIGTERM, want 0", p.addr, code)
		}
	}

	// Act 4, over the survivor's store that holds the most.
	var store string
	var held []string
	for i, p := range ring {
		metas, _ := filepath.Glob(filepath.Join(stores[i], "*", "*.entry"))
		if p != victim && len(metas) > len(held) {
			store, held = stores[i], metas
		}
	}
	if len(held) == 0 {
		t.Fatal("no survivor stored anything")
	}
	stale := filepath.Join(filepath.Dir(held[0]), ".put-killed-mid-write")
	if err := os.WriteFile(stale, []byte("half an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	hourAgo := time.Now().Add(-time.Hour)
	if err := os.Chtimes(stale, hourAgo, hourAgo); err != nil {
		t.Fatal(err)
	}
	again := start(t, "-addr", anyPort, "-store-dir", store, "-sweep-workers", "4", "-shards", "4")
	inStore := map[string]bool{}
	for _, m := range held {
		inStore[strings.TrimSuffix(filepath.Base(m), ".entry")] = true
	}
	served := 0
	for hash, artifact := range byHash {
		resp, err := client.Get("http://" + again.addr + "/v1/results/" + hash)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case !inStore[hash] && resp.StatusCode == http.StatusNotFound:
		case inStore[hash] && resp.StatusCode == http.StatusOK && bytes.Equal(body, artifact):
			served++
		default:
			t.Errorf("restart: /v1/results/%s (in the store: %v): HTTP %d, bytes equal %v",
				hash, inStore[hash], resp.StatusCode, bytes.Equal(body, artifact))
		}
	}
	if served != len(held) {
		t.Errorf("restart served %d of the %d keys its store holds", served, len(held))
	}
	m := metrics(t, again.addr)
	if m["serve_disk_hits"] == 0 || m["serve_runs_finished"] != 0 || m["serve_store_quarantined"] != 0 {
		t.Errorf("restart: serve_disk_hits %d, serve_runs_finished %d, serve_store_quarantined %d; want >0, 0, 0",
			m["serve_disk_hits"], m["serve_runs_finished"], m["serve_store_quarantined"])
	}
	if left, _ := filepath.Glob(filepath.Join(store, "*", ".put-*")); len(left) != 0 {
		t.Errorf("restart left temp files older than itself in the store: %v", left)
	}
	if code := again.Term(); code != 0 {
		t.Errorf("restarted simd: exit status %d after SIGTERM, want 0", code)
	}
}
