package cluster

// fill.go is the peer cache-fill client: an idempotent, byte-verified
// GET against another replica's /v1/results/{hash} endpoint. The
// endpoint only ever serves already-materialized artifacts (hot LRU or
// disk store) — it never triggers execution — so a fill probe is cheap
// on both sides and can never recurse.
//
// Trust model: the fetching replica verifies the payload itself. The
// owner declares the artifact's SHA-256 in a response header; the filler
// re-hashes the received bytes and refuses anything that does not match,
// so a truncated transfer or a corrupt peer store entry is dropped at
// the importing side and falls through to cold execution instead of
// poisoning the local cache.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// Wire headers of the result-fill protocol.
const (
	// SHAHeader declares the artifact's SHA-256 (hex) on a
	// /v1/results/{hash} response; the filler verifies against it.
	SHAHeader = "X-Artifact-SHA256"
	// ScenarioHeader carries the stored artifact's scenario label.
	ScenarioHeader = "X-Scenario"
	// FormatHeader carries the stored artifact's render format.
	FormatHeader = "X-Artifact-Format"
)

// ErrNotFound reports that the peer answered but does not hold the key.
var ErrNotFound = errors.New("cluster: peer does not hold this key")

// maxFillBytes bounds one fill transfer; anything larger than the
// default serve cache budget is not worth pulling over a fill.
const maxFillBytes = 256 << 20

// Result is one successfully fetched and verified artifact.
type Result struct {
	Body     []byte
	Scenario string
	Format   string
	SHA256   string // hex, re-computed locally
}

// Filler fetches results from peers. Safe for concurrent use.
type Filler struct {
	client *http.Client
	limit  int // largest body accepted: maxFillBytes
}

// NewFiller builds a fill client. timeout bounds one whole fill attempt
// (dial + transfer); fills are small localhost/LAN transfers, so a dead
// or wedged peer must fail fast enough that falling back to cold
// execution stays cheap.
func NewFiller(timeout time.Duration) *Filler {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return &Filler{client: &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: timeout}).DialContext,
			MaxIdleConnsPerHost: 4,
		},
	}, limit: maxFillBytes}
}

// Fetch pulls key from peer and verifies the bytes. Returns ErrNotFound
// when the peer answers 404 (it simply does not hold the key); any
// verification failure is an explicit error so callers can count it.
func (f *Filler) Fetch(ctx context.Context, peer, key string) (Result, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+peer+"/v1/results/"+key, nil)
	if err != nil {
		return Result{}, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return Result{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Read the short refusal to its end so the connection goes back to
		// the pool: closed unread, it is torn down, and every executed key
		// probes its ring successors, so the next probe would dial again.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		if resp.StatusCode == http.StatusNotFound {
			return Result{}, ErrNotFound
		}
		return Result{}, fmt.Errorf("cluster: peer %s answered HTTP %d for %s", peer, resp.StatusCode, key)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, int64(f.limit)+1))
	if err != nil {
		return Result{}, fmt.Errorf("cluster: fill transfer from %s: %w", peer, err)
	}
	if len(body) > f.limit {
		return Result{}, fmt.Errorf("cluster: fill from %s exceeds %d bytes", peer, f.limit)
	}
	sum := sha256.Sum256(body)
	sha := hex.EncodeToString(sum[:])
	declared := resp.Header.Get(SHAHeader)
	if declared == "" {
		return Result{}, fmt.Errorf("cluster: peer %s sent no %s header", peer, SHAHeader)
	}
	if declared != sha {
		return Result{}, fmt.Errorf("cluster: fill from %s corrupt: declared sha %.12s, got %.12s", peer, declared, sha)
	}
	return Result{
		Body:     body,
		Scenario: resp.Header.Get(ScenarioHeader),
		Format:   resp.Header.Get(FormatHeader),
		SHA256:   sha,
	}, nil
}
