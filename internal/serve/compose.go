package serve

// compose.go is the composed-scenario job path: POST /v1/compose accepts
// a scenario-composition spec (internal/scenario), canonicalizes it, and
// runs it through the same content-addressed cache / singleflight / run
// registry as the fixed scenarios. Canonicalization before hashing is
// what makes composition cacheable: two spellings of the same experiment
// (defaults omitted vs spelled out, axes reordered) collapse onto one
// canonical form, one hash, one cache entry. The envelope's leading
// "compose" key keeps the hash space disjoint from legacy JobConfig
// submissions, whose canonical encoding always starts with "scenario".

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/scenario"
	"repro/internal/sweep"
)

// composeLabel is the scenario label composed jobs run under: one shared
// per-scenario concurrency slot, one metrics family, one name in the run
// registry.
const composeLabel = "compose"

// ComposeConfig is a composed-scenario submission: the spec plus the
// artifact format.
type ComposeConfig struct {
	Compose scenario.Spec `json:"compose"`
	Format  string        `json:"format,omitempty"` // csv (default) | text | json
}

// ParseComposeConfig decodes a compose submission strictly (unknown
// fields rejected, same rule as ParseJobConfig).
func ParseComposeConfig(r io.Reader) (ComposeConfig, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var c ComposeConfig
	if err := dec.Decode(&c); err != nil {
		return c, fmt.Errorf("bad compose config: %w", err)
	}
	return c, nil
}

// Normalize canonicalizes the spec and the format; the returned config
// is the canonical form used for hashing.
func (c ComposeConfig) Normalize() (ComposeConfig, error) {
	canon, err := c.Compose.Canon()
	if err != nil {
		return c, err
	}
	c.Compose = canon
	switch c.Format {
	case "":
		c.Format = "csv"
	case "csv", "text", "json":
	default:
		return c, fmt.Errorf("unknown format %q (want csv, text, or json)", c.Format)
	}
	return c, nil
}

// Hash content-addresses a normalized compose config, exactly as
// JobConfig.Hash does for fixed scenarios.
func (c ComposeConfig) Hash() string {
	sum := sha256.Sum256(c.Canonical())
	return hex.EncodeToString(sum[:])
}

// Canonical returns the canonical JSON encoding of a normalized compose
// config — the bytes re-submitted when proxying to the ring owner (see
// JobConfig.Canonical).
func (c ComposeConfig) Canonical() []byte {
	b, err := json.Marshal(c)
	if err != nil {
		panic("serve: marshal canonical compose config: " + err.Error())
	}
	return b
}

// exec returns the job executor for a normalized compose config: run the
// phases on the worker's engine, render, return the artifact bytes.
func (c ComposeConfig) exec() func(ctx context.Context, eng *sweep.Engine) ([]byte, error) {
	return func(ctx context.Context, eng *sweep.Engine) ([]byte, error) {
		res, err := scenario.Run(ctx, eng, c.Compose)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := res.Render(&buf, c.Format); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
}

// handleCompose is POST /v1/compose. Synchronous by default (the
// artifact in the response body, as POST /v1/run); `?async=1` switches to
// submit semantics (202 + run record, as POST /v1/runs) so composed runs
// are SSE live-attachable while executing.
func (s *Server) handleCompose(w http.ResponseWriter, r *http.Request) {
	noStore(w)
	if s.draining.Load() {
		unavailable(w)
		return
	}
	cfg, err := ParseComposeConfig(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		badRequest(w, err)
		return
	}
	cfg, err = cfg.Normalize()
	if err != nil {
		badRequest(w, err)
		return
	}
	key := cfg.Hash()
	j := job{scenario: composeLabel, format: cfg.Format, key: key,
		body: cfg.Canonical(), exec: cfg.exec()}
	access(r).setScenario(composeLabel)

	if isAsync(r) {
		s.count("serve/submits{scenario="+composeLabel+"}", 1)
		s.submitJob(w, r, j)
		return
	}
	s.count("serve/requests{scenario="+composeLabel+"}", 1)
	s.serveJob(w, r, j)
}

// isAsync reports whether the request opted into submit semantics.
func isAsync(r *http.Request) bool {
	switch r.URL.Query().Get("async") {
	case "", "0", "false":
		return false
	}
	return true
}
