package serve

// cluster_test.go exercises the tentpole paths end to end over real TCP
// listeners: consistent-hash proxying, byte-verified peer cache-fill,
// fall-through on a dead owner, the /v1/results export endpoint, disk
// survival across a restart, and the tri-state /healthz body.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

// node is one in-process cluster replica on a real listener.
type node struct {
	addr string
	srv  *Server
	hs   *http.Server
}

func (n *node) url() string { return "http://" + n.addr }

// kill stops the node's listener abruptly, simulating replica death.
func (n *node) kill() { n.hs.Close() }

// newClusterNodes launches n replicas with static peer lists naming each
// other, each with its own disk store.
func newClusterNodes(t *testing.T, n int) []*node {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	nodes := make([]*node, n)
	for i := range nodes {
		srv, err := NewServer(Options{
			Workers: 1, SweepWorkers: 1,
			Self: addrs[i], Peers: addrs,
			StoreDir:    t.TempDir(),
			PeerTimeout: 500 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(listeners[i])
		nodes[i] = &node{addr: addrs[i], srv: srv, hs: hs}
		t.Cleanup(func() {
			hs.Close()
			srv.Close()
		})
	}
	return nodes
}

// jobOwnedBy searches micro-scenario configs until the ring maps one to
// want's address, returning the submission body and its config hash.
func jobOwnedBy(t *testing.T, nodes []*node, want *node) (body, key string) {
	t.Helper()
	ring := nodes[0].srv.ring
	for iters := 1; iters <= 200; iters++ {
		body = fmt.Sprintf(`{"scenario":"micro","params":{"sizes":[64],"iters":%d}}`, iters)
		j, err := parseJob(strings.NewReader(body), new(JobConfig))
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owner(j.key) == want.addr {
			return body, j.key
		}
	}
	t.Fatal("no micro config hashed onto the wanted owner in 200 tries")
	return "", ""
}

func postRun(t *testing.T, url, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/run", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func metric(t *testing.T, n *node, name string) int64 {
	t.Helper()
	resp, err := http.Get(n.url() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(sc), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			var v int64
			fmt.Sscanf(f[1], "%d", &v)
			return v
		}
	}
	return 0
}

// A job submitted to a non-owner is proxied to the ring owner; the
// artifact accumulates there, so a repeat through the non-owner is an
// owner-side cache hit. The client sees who produced the bytes.
func TestClusterProxiesToOwner(t *testing.T) {
	nodes := newClusterNodes(t, 2)
	a, b := nodes[0], nodes[1]
	body, key := jobOwnedBy(t, nodes, b)

	resp, cold := postRun(t, a.url(), body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied run: %d %s", resp.StatusCode, cold)
	}
	if got := resp.Header.Get("X-Served-By"); got != b.addr {
		t.Errorf("X-Served-By = %q, want owner %s", got, b.addr)
	}
	if got := resp.Header.Get("X-Owner"); got != b.addr {
		t.Errorf("X-Owner = %q, want %s", got, b.addr)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("cold proxied X-Cache = %q, want miss", got)
	}
	if resp.Header.Get("X-Config-Hash") != key {
		t.Errorf("proxied hash = %q, want %q", resp.Header.Get("X-Config-Hash"), key)
	}

	resp2, warm := postRun(t, a.url(), body, nil)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("repeat proxied X-Cache = %q, want owner-side hit", got)
	}
	if !bytes.Equal(cold, warm) {
		t.Error("proxied cold and warm bytes differ")
	}
	if n := metric(t, a, "serve_proxied_jobs"); n != 2 {
		t.Errorf("serve_proxied_jobs on the non-owner = %d, want 2", n)
	}
	// Relayed, not decorated: through the non-owner the client sees the
	// header names the owner sends, each once (this hop's own
	// Cache-Control used to ride along as a second value).
	direct, _ := postRun(t, b.url(), body, nil)
	for name, vals := range resp2.Header {
		if len(vals) != 1 {
			t.Errorf("proxied response carries %s %q, want one value", name, vals)
		}
		if _, ok := direct.Header[name]; !ok {
			t.Errorf("proxied response carries %s, the owner's own does not", name)
		}
	}
	if len(resp2.Header) != len(direct.Header) {
		t.Errorf("proxied response has headers %v, the owner's own %v", resp2.Header, direct.Header)
	}
	// The non-owner never materialized the artifact locally.
	if n := metric(t, a, "serve_cache_hits"); n != 0 {
		t.Errorf("non-owner serve_cache_hits = %d, want 0", n)
	}
}

// A replica forced to execute a key it does not hold pulls the bytes
// from the peer that does — verified, cheaper than re-running — and the
// fill writes through its own tiers.
func TestClusterPeerFill(t *testing.T) {
	nodes := newClusterNodes(t, 2)
	a, b := nodes[0], nodes[1]
	body, _ := jobOwnedBy(t, nodes, a)

	_, cold := postRun(t, a.url(), body, nil) // materialize at the owner

	// The forward header pins execution to b (no proxying), so its local
	// miss must resolve via peer fill from a.
	resp, filled := postRun(t, b.url(), body, map[string]string{cluster.ForwardHeader: "test"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peer-fill run: %d %s", resp.StatusCode, filled)
	}
	if got := resp.Header.Get("X-Cache"); got != "peer" {
		t.Errorf("X-Cache = %q, want peer", got)
	}
	if !bytes.Equal(cold, filled) {
		t.Error("peer-filled bytes differ from the owner's cold run")
	}
	if n := metric(t, b, "serve_peer_fills"); n != 1 {
		t.Errorf("serve_peer_fills = %d, want 1", n)
	}

	// The fill landed in b's own tiers: a repeat is a local hit.
	resp2, again := postRun(t, b.url(), body, map[string]string{cluster.ForwardHeader: "test"})
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("post-fill X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(cold, again) {
		t.Error("post-fill cached bytes differ")
	}
}

// Killing the owner must not take its keys down: the receiving replica
// detects the dead proxy target and executes locally.
func TestClusterDeadOwnerFallsThrough(t *testing.T) {
	nodes := newClusterNodes(t, 2)
	a, b := nodes[0], nodes[1]
	body, _ := jobOwnedBy(t, nodes, b)
	b.kill()

	resp, got := postRun(t, a.url(), body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover run: %d %s", resp.StatusCode, got)
	}
	if src := resp.Header.Get("X-Cache"); src != "miss" {
		t.Errorf("failover X-Cache = %q, want miss (local cold execution)", src)
	}
	if served := resp.Header.Get("X-Served-By"); served != a.addr {
		t.Errorf("X-Served-By = %q, want survivor %s", served, a.addr)
	}
	if n := metric(t, a, "serve_proxy_errors"); n != 1 {
		t.Errorf("serve_proxy_errors = %d, want 1", n)
	}
	// Survivor now holds the key; repeats are local hits.
	resp2, _ := postRun(t, a.url(), body, nil)
	if src := resp2.Header.Get("X-Cache"); src != "hit" {
		t.Errorf("post-failover repeat X-Cache = %q, want hit", src)
	}
}

// GET /v1/results/{hash} exports materialized artifacts with a declared
// SHA-256 and never triggers execution.
func TestResultsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Options{StoreDir: t.TempDir()})
	resp, artifact := post(t, ts, fastJob)
	key := resp.Header.Get("X-Config-Hash")

	res, err := http.Get(ts.URL + "/v1/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	got, _ := io.ReadAll(res.Body)
	if res.StatusCode != http.StatusOK || !bytes.Equal(got, artifact) {
		t.Fatalf("export: status %d, bytes match %v", res.StatusCode, bytes.Equal(got, artifact))
	}
	sum := sha256.Sum256(artifact)
	if res.Header.Get(cluster.SHAHeader) != hex.EncodeToString(sum[:]) {
		t.Errorf("declared sha = %q", res.Header.Get(cluster.SHAHeader))
	}
	if res.Header.Get(cluster.ScenarioHeader) != "micro" || res.Header.Get(cluster.FormatHeader) != "csv" {
		t.Errorf("export meta headers: scenario=%q format=%q",
			res.Header.Get(cluster.ScenarioHeader), res.Header.Get(cluster.FormatHeader))
	}

	for _, bogus := range []string{strings.Repeat("0", 64), "not-a-hash", "../etc/passwd"} {
		if r2, err := http.Get(ts.URL + "/v1/results/" + bogus); err == nil {
			if r2.StatusCode != http.StatusNotFound {
				t.Errorf("results %q: status %d, want 404", bogus, r2.StatusCode)
			}
			r2.Body.Close()
		}
	}
	_ = s
}

// The restart contract: a new process over the same store directory
// serves prior results from disk, byte-identical, without executing.
func TestDiskStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Options{StoreDir: dir})
	resp1, cold := post(t, ts1, fastJob)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold run: %d", resp1.StatusCode)
	}
	ts1.Close()

	s2, ts2 := newTestServer(t, Options{StoreDir: dir})
	resp2, warm := post(t, ts2, fastJob)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("restart run: %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "disk" {
		t.Errorf("restart X-Cache = %q, want disk", got)
	}
	if !bytes.Equal(cold, warm) {
		t.Error("restart served different bytes than the original cold run")
	}

	// The disk hit was promoted into the hot tier.
	resp3, _ := post(t, ts2, fastJob)
	if got := resp3.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("post-promotion X-Cache = %q, want hit", got)
	}

	// Async submissions see the disk tier too: a known artifact answers
	// 200 done immediately, no 202.
	r, err := http.Post(ts2.URL+"/v1/runs", "application/json", strings.NewReader(fastJob))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("async submit of disk-held artifact: %d, want 200", r.StatusCode)
	}
	_ = s2
}

// /healthz distinguishes why the replica is not ready: "starting" (cold
// store scan, will recover alone) vs "draining" (going away).
func TestHealthzStates(t *testing.T) {
	s, ts := newTestServer(t, Options{StoreDir: t.TempDir()})

	state := func() (int, string) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			State string `json:"state"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("healthz is not JSON: %v", err)
		}
		return resp.StatusCode, body.State
	}

	// The background scan of an empty store finishes quickly; poll to ok.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, st := state()
		if code == http.StatusOK && st == "ok" {
			break
		}
		if code != http.StatusServiceUnavailable || st != "starting" {
			t.Fatalf("pre-ready healthz = %d %q, want 503 starting", code, st)
		}
		if time.Now().After(deadline) {
			t.Fatal("store scan never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Force the starting state to pin its wire shape.
	s.starting.Store(true)
	if code, st := state(); code != http.StatusServiceUnavailable || st != "starting" {
		t.Errorf("starting healthz = %d %q, want 503 starting", code, st)
	}
	s.starting.Store(false)

	s.Drain()
	if code, st := state(); code != http.StatusServiceUnavailable || st != "draining" {
		t.Errorf("draining healthz = %d %q, want 503 draining", code, st)
	}
}
