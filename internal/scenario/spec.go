// Package scenario is the scenario registry and the declarative
// composition layer over the simulation harness. A pattern is a named,
// schema-described runner; a spec is a JSON document listing phases,
// each naming a pattern and composing the orthogonal axes that pattern
// consumes — a message-size distribution, a topology, an
// engine/consistency mode, and an optional fault plan. The traffic
// patterns (ping, fetchadd, halo, worksteal, dgemm) consume axes; the
// named scenarios (micro, amo, fig9, chaos, scf, tableii) consume none
// and are fully described by their parameters. Specs normalize to a
// canonical form (defaults filled, axes sorted, unknown or unused fields
// rejected) before hashing, so every job slots into the serving layer's
// content-addressed cache the same way: two spellings of the same
// experiment collide onto one key, and the rendered result is
// byte-identical at any sweep-worker or lane-shard count.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/sim"
)

// Limits on spec shape, in addition to bench's universal wire bounds.
const (
	MaxPhases      = 8
	MaxFaultEvents = 16
	MaxStartUS     = 10_000_000 // fault window offsets: <= 10 s virtual
	MaxDurUS       = 10_000_000
	MaxDelayUS     = 1_000_000
	MaxWeight      = 64 // mixture point repetition multiplier
	MaxFaultID     = 4095
	// DefaultFaultSeed fills a fault plan whose seed is omitted or zero.
	DefaultFaultSeed = 42
)

// SpecError reports one invalid spec field with enough structure for
// the serving layer's {error, field, hint} responses. Field is a
// JSON-path-like locator, e.g. "phases[1].fault.events[0].prob".
type SpecError struct {
	Field string
	Hint  string
}

func (e *SpecError) Error() string { return e.Field + ": " + e.Hint }

func errf(field, format string, args ...any) *SpecError {
	return &SpecError{Field: field, Hint: fmt.Sprintf(format, args...)}
}

// Spec is one composed scenario: an ordered list of phases executed
// sequentially on one engine. Version 1 is the only wire version; 0
// normalizes to 1.
type Spec struct {
	Version int         `json:"version"`
	Phases  []PhaseSpec `json:"phases"`
}

// PhaseSpec composes one phase from the orthogonal axes. Which axes a
// pattern consumes is declared in its registry entry; setting an axis
// the pattern does not consume is an error (silently dropping it would
// alias two different-looking specs onto one hash).
type PhaseSpec struct {
	Pattern  string        `json:"pattern"`
	Params   bench.Values  `json:"params,omitempty"`
	Sizes    *SizeDist     `json:"sizes,omitempty"`
	Topology *TopologySpec `json:"topology,omitempty"`
	Engine   *EngineSpec   `json:"engine,omitempty"`
	Fault    *FaultSpec    `json:"fault,omitempty"`
}

// SizeDist is the message-size axis: a single size, a power-of-two
// sweep, or a weighted mixture.
type SizeDist struct {
	Kind     string      `json:"kind"` // fixed | sweep | mixture
	Bytes    int         `json:"bytes,omitempty"`
	MinBytes int         `json:"min_bytes,omitempty"`
	MaxBytes int         `json:"max_bytes,omitempty"`
	Points   []SizePoint `json:"points,omitempty"`
}

// SizePoint is one mixture component: Weight scales how many
// repetitions of the measured loop run at Bytes.
type SizePoint struct {
	Bytes  int `json:"bytes"`
	Weight int `json:"weight"`
}

// TopologySpec is the process-layout axis.
type TopologySpec struct {
	Procs   []int `json:"procs,omitempty"`
	PerNode int   `json:"per_node,omitempty"`
}

// EngineSpec is the runtime-mode axis: progress engine mode and, for
// the dgemm pattern, the conflict-tracking consistency scheme.
type EngineSpec struct {
	Mode        string `json:"mode,omitempty"`        // default | async | both
	Consistency string `json:"consistency,omitempty"` // naive | region | both
}

// FaultSpec is the fault axis: a deterministic seed plus scripted
// windows, reusing internal/fault. Times are virtual microseconds;
// windows should start at or after bench.FaultEpoch (30 ms), where the
// patterns anchor their measured loops.
type FaultSpec struct {
	Seed   uint64           `json:"seed,omitempty"`
	Events []FaultEventSpec `json:"events"`
}

// FaultEventSpec is one scripted fault window. Nil id filters normalize
// to the explicit wildcard -1 (fault.Any).
type FaultEventSpec struct {
	Kind    string  `json:"kind"` // link_down | link_slow | node_down | delay | duplicate
	Link    *int    `json:"link,omitempty"`
	Node    *int    `json:"node,omitempty"`
	Src     *int    `json:"src,omitempty"`
	Dst     *int    `json:"dst,omitempty"`
	StartUS int64   `json:"start_us"`
	DurUS   int64   `json:"dur_us"`
	Factor  float64 `json:"factor,omitempty"`   // link_slow
	Prob    float64 `json:"prob,omitempty"`     // delay, duplicate
	DelayUS int64   `json:"delay_us,omitempty"` // delay
}

// ErrTrailingData is Decode's refusal of a body that carries anything but
// whitespace after its one JSON value.
var ErrTrailingData = errors.New("trailing data after the JSON value")

// Decode reads exactly one JSON value from r into v, strictly: unknown
// fields are rejected, so a typo cannot alias two semantically different
// submissions onto one hash, and so is anything but whitespace after the
// value — a second object or stray bytes must not ride along under the
// first one's key. Every wire decoder (Parse here, the serving layer's
// two envelopes) goes through it.
func Decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// At the clean end of input Token returns io.EOF without allocating
	// (whitespace after a sub-512-byte value costs one buffer growth).
	if _, err := dec.Token(); err != io.EOF {
		return ErrTrailingData
	}
	return nil
}

// Parse decodes a JSON spec (see Decode for the strictness rules).
func Parse(r io.Reader) (Spec, error) {
	var s Spec
	if err := Decode(r, &s); err != nil {
		return s, fmt.Errorf("bad scenario spec: %w", err)
	}
	return s, nil
}

// Canon returns the canonical form of the spec: version pinned,
// pattern params resolved against their schemas (defaults spelled out),
// axes default-filled and sorted, unused axes rejected. Canon is
// idempotent — Canon(Canon(s)) == Canon(s) — which is what makes the
// canonical JSON a content address.
func (s Spec) Canon() (Spec, error) {
	switch s.Version {
	case 0:
		s.Version = 1
	case 1:
	default:
		return s, errf("version", "unsupported spec version %d (want 1)", s.Version)
	}
	if len(s.Phases) == 0 {
		return s, errf("phases", "at least one phase required")
	}
	if len(s.Phases) > MaxPhases {
		return s, errf("phases", "at most %d phases (got %d)", MaxPhases, len(s.Phases))
	}
	out := Spec{Version: 1, Phases: make([]PhaseSpec, len(s.Phases))}
	for i := range s.Phases {
		ph, err := canonPhase(s.Phases[i], fmt.Sprintf("phases[%d]", i))
		if err != nil {
			return s, err
		}
		out.Phases[i] = ph
	}
	return out, nil
}

// canonPhase canonicalizes one phase against its pattern's declaration.
func canonPhase(ph PhaseSpec, field string) (PhaseSpec, error) {
	pat, ok := lookupPattern(ph.Pattern)
	if !ok {
		return ph, errf(field+".pattern", "unknown pattern %q", ph.Pattern)
	}
	vals, err := pat.Schema.Resolve(ph.Params)
	if err != nil {
		var pe *bench.ParamError
		if errors.As(err, &pe) {
			return ph, &SpecError{Field: field + ".params." + pe.Param, Hint: pe.Hint}
		}
		return ph, &SpecError{Field: field + ".params", Hint: err.Error()}
	}
	ph.Params = vals

	if ph.Sizes, err = canonSizes(ph.Sizes, pat, field+".sizes"); err != nil {
		return ph, err
	}
	if ph.Topology, err = canonTopology(ph.Topology, pat, field+".topology"); err != nil {
		return ph, err
	}
	if ph.Engine, err = canonEngine(ph.Engine, pat, field+".engine"); err != nil {
		return ph, err
	}
	if ph.Fault, err = canonFault(ph.Fault, pat, field+".fault"); err != nil {
		return ph, err
	}
	if pat.Check != nil {
		if err := pat.Check(&ph, field); err != nil {
			return ph, err
		}
	}
	return ph, nil
}

// canonSizes fills or rejects the size axis.
func canonSizes(d *SizeDist, pat *pattern, field string) (*SizeDist, error) {
	if !pat.Axes.Sizes {
		if d != nil && (d.Kind != "" || d.Bytes != 0 || d.MinBytes != 0 ||
			d.MaxBytes != 0 || len(d.Points) != 0) {
			return nil, errf(field, "pattern %q has no message-size axis", pat.Name)
		}
		return nil, nil
	}
	if d == nil || (d.Kind == "" && d.Bytes == 0 && d.MinBytes == 0 &&
		d.MaxBytes == 0 && len(d.Points) == 0) {
		cp := *pat.DefaultSizes
		return &cp, nil
	}
	cp := *d
	cp.Points = append([]SizePoint(nil), d.Points...)
	switch cp.Kind {
	case "fixed":
		if cp.Bytes < bench.MinSize || cp.Bytes > bench.MaxSize {
			return nil, errf(field+".bytes", "must be in [%d, %d] (got %d)",
				bench.MinSize, bench.MaxSize, cp.Bytes)
		}
		if cp.MinBytes != 0 || cp.MaxBytes != 0 || len(cp.Points) != 0 {
			return nil, errf(field, "fixed distribution takes only bytes")
		}
	case "sweep":
		if cp.MinBytes == 0 {
			cp.MinBytes = pat.DefaultSizes.MinBytes
		}
		if cp.MaxBytes == 0 {
			cp.MaxBytes = pat.DefaultSizes.MaxBytes
		}
		if cp.Bytes != 0 || len(cp.Points) != 0 {
			return nil, errf(field, "sweep distribution takes only min_bytes/max_bytes")
		}
		for _, f := range []struct {
			name string
			v    int
		}{{"min_bytes", cp.MinBytes}, {"max_bytes", cp.MaxBytes}} {
			if f.v < bench.MinSize || f.v > bench.MaxSize {
				return nil, errf(field+"."+f.name, "must be in [%d, %d] (got %d)",
					bench.MinSize, bench.MaxSize, f.v)
			}
			if f.v&(f.v-1) != 0 {
				return nil, errf(field+"."+f.name, "must be a power of two (got %d)", f.v)
			}
		}
		if cp.MinBytes > cp.MaxBytes {
			return nil, errf(field, "min_bytes %d exceeds max_bytes %d", cp.MinBytes, cp.MaxBytes)
		}
	case "mixture":
		if cp.Bytes != 0 || cp.MinBytes != 0 || cp.MaxBytes != 0 {
			return nil, errf(field, "mixture distribution takes only points")
		}
		if len(cp.Points) == 0 {
			return nil, errf(field+".points", "at least one point required")
		}
		if len(cp.Points) > bench.MaxSizePoints {
			return nil, errf(field+".points", "at most %d points (got %d)",
				bench.MaxSizePoints, len(cp.Points))
		}
		for i := range cp.Points {
			p := &cp.Points[i]
			if p.Bytes < bench.MinSize || p.Bytes > bench.MaxSize {
				return nil, errf(fmt.Sprintf("%s.points[%d].bytes", field, i),
					"must be in [%d, %d] (got %d)", bench.MinSize, bench.MaxSize, p.Bytes)
			}
			if p.Weight == 0 {
				p.Weight = 1
			}
			if p.Weight < 1 || p.Weight > MaxWeight {
				return nil, errf(fmt.Sprintf("%s.points[%d].weight", field, i),
					"must be in [1, %d] (got %d)", MaxWeight, p.Weight)
			}
		}
		sort.Slice(cp.Points, func(i, j int) bool { return cp.Points[i].Bytes < cp.Points[j].Bytes })
		for i := 1; i < len(cp.Points); i++ {
			if cp.Points[i].Bytes == cp.Points[i-1].Bytes {
				return nil, errf(field+".points", "duplicate size %d", cp.Points[i].Bytes)
			}
		}
	default:
		return nil, errf(field+".kind", "unknown distribution %q (want fixed, sweep, or mixture)", cp.Kind)
	}
	return &cp, nil
}

// resolve expands a canonical distribution into the measured size list
// and optional per-size weights.
func (d *SizeDist) resolve() (sizes, weights []int) {
	switch d.Kind {
	case "fixed":
		return []int{d.Bytes}, nil
	case "sweep":
		for m := d.MinBytes; m <= d.MaxBytes; m *= 2 {
			sizes = append(sizes, m)
		}
		return sizes, nil
	case "mixture":
		for _, p := range d.Points {
			sizes = append(sizes, p.Bytes)
			weights = append(weights, p.Weight)
		}
		return sizes, weights
	}
	panic("scenario: unresolved size distribution " + d.Kind)
}

// canonTopology fills or rejects the layout axis.
func canonTopology(t *TopologySpec, pat *pattern, field string) (*TopologySpec, error) {
	if !pat.Axes.Procs && !pat.Axes.PerNode {
		if t != nil && (len(t.Procs) != 0 || t.PerNode != 0) {
			return nil, errf(field, "pattern %q has a fixed topology", pat.Name)
		}
		return nil, nil
	}
	cp := TopologySpec{}
	if t != nil {
		cp.Procs = append([]int(nil), t.Procs...)
		cp.PerNode = t.PerNode
	}
	if !pat.Axes.Procs {
		if len(cp.Procs) != 0 {
			return nil, errf(field+".procs", "pattern %q derives its process count", pat.Name)
		}
	} else {
		if len(cp.Procs) == 0 {
			cp.Procs = append([]int(nil), pat.DefaultTopology.Procs...)
		}
		if len(cp.Procs) > bench.MaxSweepPoints {
			return nil, errf(field+".procs", "at most %d sweep points (got %d)",
				bench.MaxSweepPoints, len(cp.Procs))
		}
		for _, n := range cp.Procs {
			if n < bench.MinProcs || n > bench.MaxProcs {
				return nil, errf(field+".procs", "each count must be in [%d, %d] (got %d)",
					bench.MinProcs, bench.MaxProcs, n)
			}
		}
		sort.Ints(cp.Procs)
		for i := 1; i < len(cp.Procs); i++ {
			if cp.Procs[i] == cp.Procs[i-1] {
				return nil, errf(field+".procs", "duplicate count %d", cp.Procs[i])
			}
		}
	}
	if cp.PerNode == 0 {
		cp.PerNode = pat.DefaultTopology.PerNode
	}
	if cp.PerNode < 1 || cp.PerNode > bench.MaxPerNode {
		return nil, errf(field+".per_node", "must be in [1, %d] (got %d)",
			bench.MaxPerNode, cp.PerNode)
	}
	return &cp, nil
}

// canonEngine fills or rejects the runtime-mode axis.
func canonEngine(e *EngineSpec, pat *pattern, field string) (*EngineSpec, error) {
	cp := EngineSpec{}
	if e != nil {
		cp = *e
	}
	if !pat.Axes.Mode {
		if cp.Mode != "" {
			return nil, errf(field+".mode", "pattern %q fixes its progress mode", pat.Name)
		}
	} else {
		if cp.Mode == "" {
			cp.Mode = pat.DefaultEngine.Mode
		}
		switch cp.Mode {
		case "default", "async", "both":
		default:
			return nil, errf(field+".mode", "unknown mode %q (want default, async, or both)", cp.Mode)
		}
	}
	if !pat.Axes.Consistency {
		if cp.Consistency != "" {
			return nil, errf(field+".consistency", "pattern %q has no consistency axis", pat.Name)
		}
	} else {
		if cp.Consistency == "" {
			cp.Consistency = pat.DefaultEngine.Consistency
		}
		switch cp.Consistency {
		case "naive", "region", "both":
		default:
			return nil, errf(field+".consistency",
				"unknown consistency %q (want naive, region, or both)", cp.Consistency)
		}
	}
	return &cp, nil
}

// modes expands the canonical mode string into async-thread values in
// column order.
func (e *EngineSpec) modes() []bool {
	switch e.Mode {
	case "default":
		return []bool{false}
	case "async":
		return []bool{true}
	case "both":
		return []bool{false, true}
	}
	panic("scenario: unresolved engine mode " + e.Mode)
}

// faultKinds orders the wire kinds for canonical event sorting.
var faultKinds = map[string]int{
	"link_down": 0, "link_slow": 1, "node_down": 2, "delay": 3, "duplicate": 4,
}

// canonFault fills or rejects the fault axis.
func canonFault(f *FaultSpec, pat *pattern, field string) (*FaultSpec, error) {
	if f == nil {
		return nil, nil
	}
	if !pat.Axes.Fault {
		return nil, errf(field, "pattern %q does not accept a fault plan", pat.Name)
	}
	cp := FaultSpec{Seed: f.Seed, Events: append([]FaultEventSpec(nil), f.Events...)}
	if cp.Seed == 0 {
		cp.Seed = DefaultFaultSeed
	}
	if len(cp.Events) == 0 {
		return nil, errf(field+".events", "at least one event required")
	}
	if len(cp.Events) > MaxFaultEvents {
		return nil, errf(field+".events", "at most %d events (got %d)", MaxFaultEvents, len(cp.Events))
	}
	for i := range cp.Events {
		if err := canonFaultEvent(&cp.Events[i], fmt.Sprintf("%s.events[%d]", field, i)); err != nil {
			return nil, err
		}
	}
	sort.SliceStable(cp.Events, func(i, j int) bool {
		a, b := cp.Events[i], cp.Events[j]
		if a.StartUS != b.StartUS {
			return a.StartUS < b.StartUS
		}
		if faultKinds[a.Kind] != faultKinds[b.Kind] {
			return faultKinds[a.Kind] < faultKinds[b.Kind]
		}
		if *a.Link != *b.Link {
			return *a.Link < *b.Link
		}
		if *a.Node != *b.Node {
			return *a.Node < *b.Node
		}
		if *a.Src != *b.Src {
			return *a.Src < *b.Src
		}
		if *a.Dst != *b.Dst {
			return *a.Dst < *b.Dst
		}
		return a.DurUS < b.DurUS
	})
	return &cp, nil
}

// canonFaultEvent normalizes one event in place: nil filters become the
// explicit wildcard, per-kind field usage is enforced, windows bounded.
func canonFaultEvent(e *FaultEventSpec, field string) error {
	kindOK := false
	for k := range faultKinds {
		if e.Kind == k {
			kindOK = true
		}
	}
	if !kindOK {
		return errf(field+".kind",
			"unknown kind %q (want link_down, link_slow, node_down, delay, or duplicate)", e.Kind)
	}
	if e.StartUS < 0 || e.StartUS > MaxStartUS {
		return errf(field+".start_us", "must be in [0, %d] (got %d)", MaxStartUS, e.StartUS)
	}
	if e.DurUS < 1 || e.DurUS > MaxDurUS {
		return errf(field+".dur_us", "must be in [1, %d] (got %d)", MaxDurUS, e.DurUS)
	}

	// Which id filters and knobs each kind consumes; the rest must be
	// absent (a silently dropped field would alias two specs).
	wantLink := e.Kind == "link_down" || e.Kind == "link_slow"
	wantNode := e.Kind == "node_down"
	wantEnds := e.Kind == "delay" || e.Kind == "duplicate"

	norm := func(p **int, used bool, name string) error {
		if !used {
			// The canonical form materializes unused filters as the
			// wildcard, so re-canonicalization must accept exactly that.
			if *p != nil && **p != fault.Any {
				return errf(field+"."+name, "not used by kind %q", e.Kind)
			}
			return nil
		}
		if *p == nil {
			v := fault.Any
			*p = &v
			return nil
		}
		if v := **p; v != fault.Any && (v < 0 || v > MaxFaultID) {
			return errf(field+"."+name, "must be -1 (any) or in [0, %d] (got %d)", MaxFaultID, v)
		}
		return nil
	}
	if err := norm(&e.Link, wantLink, "link"); err != nil {
		return err
	}
	if err := norm(&e.Node, wantNode, "node"); err != nil {
		return err
	}
	if err := norm(&e.Src, wantEnds, "src"); err != nil {
		return err
	}
	if err := norm(&e.Dst, wantEnds, "dst"); err != nil {
		return err
	}
	// After normalization every filter pointer is set (unused ones to the
	// wildcard) so canonical JSON and the sort comparator see one shape.
	ensure := func(p **int) {
		if *p == nil {
			v := fault.Any
			*p = &v
		}
	}
	ensure(&e.Link)
	ensure(&e.Node)
	ensure(&e.Src)
	ensure(&e.Dst)

	if e.Kind == "link_slow" {
		if e.Factor <= 0 || e.Factor > 1 {
			return errf(field+".factor", "must be in (0, 1] (got %g)", e.Factor)
		}
	} else if e.Factor != 0 {
		return errf(field+".factor", "not used by kind %q", e.Kind)
	}
	if wantEnds {
		if e.Prob <= 0 || e.Prob > 1 {
			return errf(field+".prob", "must be in (0, 1] (got %g)", e.Prob)
		}
	} else if e.Prob != 0 {
		return errf(field+".prob", "not used by kind %q", e.Kind)
	}
	if e.Kind == "delay" {
		if e.DelayUS < 1 || e.DelayUS > MaxDelayUS {
			return errf(field+".delay_us", "must be in [1, %d] (got %d)", MaxDelayUS, e.DelayUS)
		}
	} else if e.DelayUS != 0 {
		return errf(field+".delay_us", "not used by kind %q", e.Kind)
	}
	return nil
}

// build constructs a fresh fault.Plan from a canonical FaultSpec.
// Injector state is per-simulation, so every simulation gets its own
// plan instance.
func (f *FaultSpec) build() *fault.Plan {
	p := fault.NewPlan(f.Seed)
	us := func(v int64) sim.Time { return sim.Time(v) * sim.Microsecond }
	for _, e := range f.Events {
		switch e.Kind {
		case "link_down":
			p.LinkDown(*e.Link, us(e.StartUS), us(e.DurUS))
		case "link_slow":
			p.LinkSlow(*e.Link, us(e.StartUS), us(e.DurUS), e.Factor)
		case "node_down":
			p.NodeDown(*e.Node, us(e.StartUS), us(e.DurUS))
		case "delay":
			p.Delay(*e.Src, *e.Dst, us(e.StartUS), us(e.DurUS), e.Prob, us(e.DelayUS))
		case "duplicate":
			p.Duplicate(*e.Src, *e.Dst, us(e.StartUS), us(e.DurUS), e.Prob)
		}
	}
	return p
}

// factory returns a fresh-plan constructor for the bench pattern specs,
// or nil when no fault axis is set.
func (f *FaultSpec) factory() func() *fault.Plan {
	if f == nil {
		return nil
	}
	return f.build
}

// seed returns the fault seed, or 0 when no fault axis is set.
func (f *FaultSpec) seed() uint64 {
	if f == nil {
		return 0
	}
	return f.Seed
}
