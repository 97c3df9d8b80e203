// Package serve is the simulation-as-a-service layer: a long-running
// daemon that accepts benchmark/sweep jobs over HTTP, executes them in a
// bounded number of slots over one sweep.Engine, and returns the
// deterministic CSV/JSON artifacts.
//
// The load-bearing observation is that every simulation in this
// repository is a pure function of its configuration: same config, same
// seed, byte-identical output (the determinism and chaos goldens pin
// this). That turns results into immutable, content-addressed values —
// a config's canonical hash IS the identity of its artifact — so the
// service can
//
//   - cache results forever (no invalidation problem exists: an entry
//     can only ever be evicted for space, never for staleness),
//   - collapse concurrent identical submissions onto one execution
//     (singleflight) and hand every waiter the same bytes, and
//   - verify itself end to end: a cached response must equal a cold one
//     byte for byte (TestRunColdThenCachedByteIdentical; under load and
//     across processes, cmd/simd's tests).
//
// Admission control keeps the daemon predictable under overload: a
// bounded job queue (429 + Retry-After when full), per-scenario
// concurrency caps, and request-context cancellation threaded through
// sweep.Engine so a job every client has abandoned stops consuming
// workers at the next sweep-point boundary.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/bench"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// A submission arrives in one of two envelopes. Both name patterns from
// the one registry (internal/scenario) and both reduce, in newJob, to
// the same thing: a label, a format, a canonical spec to execute, and
// the canonical bytes whose SHA-256 is the job's identity. The leading
// JSON key ("scenario" vs "compose") keeps their hash spaces disjoint.
type envelope interface {
	// normalize canonicalizes the envelope in place — defaults spelled
	// out, format resolved — and returns the job it describes, still
	// without its key and body (newJob derives both from the envelope).
	normalize() (job, error)
}

// JobConfig is the {"scenario": name} envelope of POST /v1/run and POST
// /v1/runs: the wire and hash shape of a named scenario (a registry
// pattern that consumes no axes) with its parameters. What it guarantees
// is the key and the bytes: the canonical encoding — scenario, format,
// then the resolved parameters in the flat order below — is the one the
// pinned hashes were taken over, and the artifact is the bare grid.
type JobConfig struct {
	Scenario string     `json:"scenario"`
	Format   string     `json:"format,omitempty"` // csv (default) | text | json
	Params   wireParams `json:"params"`
}

// wireParams is a named scenario's parameter object. Submitted in any
// key order, it marshals in wireOrder (encoding/json would sort a map's
// keys), so a resolved set encodes to the bytes every cached key covers.
type wireParams bench.Values

var wireOrder = [...]string{"procs", "per_node", "ops_each", "iters", "sizes", "seed"}

func (p wireParams) MarshalJSON() ([]byte, error) {
	buf := []byte{'{'}
	for _, name := range wireOrder {
		v, ok := p[name]
		if !ok {
			continue
		}
		val, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		if len(buf) > 1 {
			buf = append(buf, ',')
		}
		buf = append(strconv.AppendQuote(buf, name), ':')
		buf = append(buf, val...)
	}
	return append(buf, '}'), nil
}

// UnmarshalJSON keeps every number as the literal submitted
// (json.Number) instead of a float64, as the typed struct this wire used
// to decode into did: all 64 bits of a seed reach the hash and the run,
// and 5.0 or 1e1 is not an integer here.
func (p *wireParams) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		return err
	}
	*p = m
	return nil
}

func (c *JobConfig) normalize() (job, error) {
	info, ok := scenario.Lookup(c.Scenario)
	if !ok || !info.Named() {
		return job{}, fmt.Errorf("unknown scenario %q", c.Scenario)
	}
	var err error
	if c.Format, err = canonFormat(c.Format); err != nil {
		return job{}, err
	}
	vals, err := info.Params.Resolve(bench.Values(c.Params))
	if err != nil {
		return job{}, err
	}
	c.Params = wireParams(vals)
	spec := scenario.Spec{Phases: []scenario.PhaseSpec{{Pattern: c.Scenario, Params: vals}}}
	return job{identity: &identity{scenario: c.Scenario, format: c.Format}, spec: spec, bare: true}, nil
}

// composeLabel is the scenario label composed jobs run under: one shared
// per-scenario concurrency slot, one metrics family, one name in the run
// registry.
const composeLabel = "compose"

// ComposeConfig is the {"compose": spec} envelope of POST /v1/compose: a
// composed multi-phase spec plus the artifact format. Canonicalization
// before hashing is what makes composition cacheable — two spellings of
// the same experiment (defaults omitted vs spelled out, axes reordered)
// collapse onto one canonical form, one hash, one cache entry.
type ComposeConfig struct {
	Compose scenario.Spec `json:"compose"`
	Format  string        `json:"format,omitempty"` // csv (default) | text | json
}

func (c *ComposeConfig) normalize() (job, error) {
	canon, err := c.Compose.Canon()
	if err != nil {
		return job{}, err
	}
	c.Compose = canon
	if c.Format, err = canonFormat(c.Format); err != nil {
		return job{}, err
	}
	return job{identity: &identity{scenario: composeLabel, format: c.Format}, spec: canon}, nil
}

// canonFormat is the one place an artifact format is validated.
func canonFormat(f string) (string, error) {
	switch f {
	case "":
		return "csv", nil
	case "csv", "text", "json":
		return f, nil
	}
	return "", fmt.Errorf("unknown format %q (want csv, text, or json)", f)
}

// identity is what a job is to this replica's answer tiers: its content
// address and the two labels an artifact is served under. An LRU or disk
// hit needs nothing else, so it is all the parse memo keeps of a body.
//
// Immutable once newJob has built it: the memo hands one value to every
// request that re-posts the same bytes, and every reply for the key puts
// slices of hdr into its response header map as they are (capacity 1
// each, so an append by anything downstream copies) — nobody assigns into
// them.
type identity struct {
	key      string // the config's content address
	scenario string // label for metrics, the per-scenario cap, the run registry ("compose" for composed jobs)
	format   string

	// hdr backs the header values writeArtifact sets for this key —
	// X-Config-Hash, X-Scenario, Content-Type — built once here instead
	// of one slice per header per reply.
	hdr [3]string
}

// job is one executable unit behind the cache/singleflight/registry
// machinery: its identity, plus what only the paths that leave this
// replica's answer tiers need — spec is what exec runs; bare selects the
// {"scenario":…} artifact, the phase's grid with no phase header.
type job struct {
	*identity
	body []byte // canonical envelope JSON — what a proxy re-submits
	spec scenario.Spec
	bare bool
}

// envelopeKind names the envelope a route decodes. It is part of a parse
// memo key, so that it can be looked up before any envelope is allocated.
type envelopeKind uint8

const (
	scenarioEnvelope envelopeKind = iota // POST /v1/run, POST /v1/runs
	composeEnvelope                      // POST /v1/compose
)

func (k envelopeKind) new() envelope {
	if k == composeEnvelope {
		return new(ComposeConfig)
	}
	return new(JobConfig)
}

// parseJob decodes r into env strictly (see scenario.Decode) and builds
// the job.
func parseJob(r io.Reader, env envelope) (job, error) {
	if err := scenario.Decode(r, env); err != nil {
		return job{}, fmt.Errorf("bad job config: %w", err)
	}
	return newJob(env)
}

// newJob is the one constructor: it normalizes a decoded envelope and
// content-addresses it. The key is the SHA-256 of the canonical JSON
// encoding: the decode step already erased any field-order or whitespace
// variation in the submission and normalize erased the
// explicit-defaults-vs-omitted distinction, so two requests for the same
// experiment always collide onto one key, and two different experiments
// never do. A clustered replica re-submits the same bytes when proxying
// to the key's ring owner, which therefore derives the identical key.
func newJob(env envelope) (job, error) {
	j, err := env.normalize()
	if err != nil {
		return job{}, err
	}
	j.body, err = json.Marshal(env)
	if err != nil {
		// Strings, ints and slices cannot fail to marshal.
		panic("serve: marshal canonical config: " + err.Error())
	}
	j.key = sha256Hex(j.body)
	j.hdr = [3]string{j.key, j.scenario, contentTypeFor(j.format)}
	return j, nil
}

// exec is the one executor: run the spec's phases on the server's engine and
// render the artifact. A named scenario's artifact is its bare grid —
// the bytes its key has always addressed — a composed one carries the
// per-phase separators.
func (j job) exec(ctx context.Context, eng *sweep.Engine) ([]byte, error) {
	res, err := scenario.Run(ctx, eng, j.spec)
	if err != nil {
		// An invalid spec never gets here (newJob canonicalized it), so
		// this is ctx's error: the sweep was cut short and the partial
		// result must never be rendered, served, or cached.
		return nil, err
	}
	if j.bare {
		return renderArtifact(res.Phases[0].Grid, j.format)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf, j.format); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
