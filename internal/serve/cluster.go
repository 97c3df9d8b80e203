package serve

// cluster.go glues the cluster plane (internal/cluster) and the disk
// tier (store.go) into the job path. The layering, top to bottom:
//
//	hot LRU  →  disk store  →  proxy to ring owner  →  peer fill  →  cold
//
// Everything here degrades to a no-op on an unclustered, storeless
// server: lookupLocal is then exactly an LRU probe, proxyTarget never
// fires, peerFill returns nil.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"maps"
	"net/http"
	"sync/atomic"

	"repro/internal/cluster"
)

// lookupLocal is the one walk of this replica's own tiers, for every
// handler that answers from them (job submissions, the export endpoint, a
// run whose record was evicted): the hot LRU first, the disk store second.
// A disk hit is verified (store.Get re-hashes), counted, and promoted into
// the LRU under the hash that load just checked. src is where the artifact
// was found — "hit" or "disk", the X-Cache label — or "" when neither tier
// holds it. What a miss or an LRU hit counts for is the caller's to say.
func (s *Server) lookupLocal(key string) (a artifact, src string) {
	if a, ok := s.cache.Get(key); ok {
		return a, "hit"
	}
	if s.store != nil {
		if body, meta, ok := s.store.Get(key); ok {
			atomic.AddUint64(&s.diskHits, 1)
			a = artifact{body, meta.Scenario, meta.Format, meta.SHA256}
			s.cache.put(key, a)
			return a, "disk"
		}
	}
	return artifact{}, ""
}

// fill records a freshly materialized artifact (cold execution or peer
// fill) in every local tier: the hot LRU always, the disk store when
// configured. sha is body's hex SHA-256, computed once by the caller (or
// by the peer filler's verification) for both tiers.
func (s *Server) fill(j *identity, body []byte, sha string) {
	s.cache.put(j.key, artifact{body, j.scenario, j.format, sha})
	if s.store != nil {
		if err := s.store.putHashed(j.key, body, j.scenario, j.format, sha); err != nil {
			// Disk full / permissions: the job still succeeded, the LRU
			// still serves it. Count it so an operator notices.
			atomic.AddUint64(&s.putErrors, 1)
		}
	}
}

// proxyTarget decides whether this request should be handed to another
// replica: only when clustered, only when the ring maps the key to a
// peer, and never for a request a peer already forwarded to us — the
// forward header breaks routing loops if two replicas ever disagree
// about the ring (misconfigured peer lists).
func (s *Server) proxyTarget(r *http.Request, key string) (owner string, ok bool) {
	if s.ring == nil {
		return "", false
	}
	owner = s.ring.Owner(key)
	if owner == s.ring.Self() || r.Header.Get(cluster.ForwardHeader) != "" {
		return "", false
	}
	return owner, true
}

// proxyJob re-submits the job's canonical config to the owner replica
// and relays the response verbatim (headers included, so the client sees
// the owner's X-Cache and X-Served-By). Returns false — nothing written —
// when the owner is unreachable, answers 502, or is draining (503): the
// caller then executes locally, which keeps the cluster serving through
// a member's death or rolling restart at the cost of a temporary second
// copy of that member's keys.
func (s *Server) proxyJob(w http.ResponseWriter, r *http.Request, j job, owner string) bool {
	path := "/v1/run"
	if j.scenario == composeLabel {
		path = "/v1/compose"
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		"http://"+owner+path, bytes.NewReader(j.body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.ForwardHeader, s.ring.Self())
	resp, err := s.proxyClient.Do(req)
	if err != nil {
		atomic.AddUint64(&s.proxyErrors, 1)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusBadGateway || resp.StatusCode == http.StatusServiceUnavailable {
		atomic.AddUint64(&s.proxyErrors, 1)
		io.Copy(io.Discard, resp.Body)
		return false
	}
	// Any other status — 200 artifact, 400 bad params, 429 owner queue
	// full, 504 timeout — is the owner's authoritative answer; relay it.
	// The owner's headers replace what this handler has set so far
	// (Cache-Control), they are not added to it.
	maps.Copy(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	atomic.AddUint64(&s.proxied, 1)
	access(r).setCache("proxied")
	return true
}

// peerFill asks the key's other ring members (owner-successor order) for
// an already-materialized artifact. Bytes are verified by the filler
// (re-hashed against the peer's declared SHA-256) before they are
// trusted, stored, or served — a corrupt peer degrades to a miss, never
// to poison. Returns nil on a cluster-wide miss; the caller executes.
func (s *Server) peerFill(ctx context.Context, j job) *jobResult {
	if s.ring == nil {
		return nil
	}
	for _, m := range s.ring.Successors(j.key) {
		if m == s.ring.Self() {
			continue
		}
		res, err := s.filler.Fetch(ctx, m, j.key)
		if err != nil {
			if !errors.Is(err, cluster.ErrNotFound) {
				atomic.AddUint64(&s.fillErrors, 1)
			}
			continue
		}
		atomic.AddUint64(&s.fills, 1)
		s.fill(j.identity, res.Body, res.SHA256)
		return &jobResult{status: http.StatusOK, body: res.Body, src: "peer"}
	}
	atomic.AddUint64(&s.fillMisses, 1)
	return nil
}

// handleResult is GET /v1/results/{hash}: the artifact export endpoint
// peers fill from. It serves only already-materialized bytes — whatever
// lookupLocal finds — and never triggers execution, so a fill probe is
// cheap and cannot recurse. The response declares the artifact's SHA-256
// for the fetching side to verify.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("hash")
	if !validStoreKey(key) {
		notFound(w, "hash", "not a config hash (64 lowercase hex chars)")
		return
	}
	a, src := s.lookupLocal(key)
	if src == "" {
		notFound(w, "hash", "no materialized artifact for this hash")
		return
	}
	atomic.AddUint64(&s.exports, 1)
	w.Header().Set("Content-Type", contentTypeFor(a.format))
	w.Header().Set(cluster.SHAHeader, a.sha)
	w.Header().Set(cluster.ScenarioHeader, a.scenario)
	w.Header().Set(cluster.FormatHeader, a.format)
	w.Header().Set("X-Config-Hash", key)
	w.Write(a.body)
}
