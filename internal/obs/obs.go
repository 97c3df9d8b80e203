// Package obs is the process-wide observability layer for the simulation
// stack: a metrics registry (counters, gauges, fixed-bucket histograms)
// plus a structured span/event tracer that exports Chrome trace_event
// JSON loadable in Perfetto.
//
// Design rules:
//
//   - Everything hangs off an injectable *Registry. A nil Registry (and
//     the nil handles it yields) is a safe no-op, so instrumented code
//     pays one pointer check and zero allocations when observability is
//     off. A registry made WithTrackCap(0) keeps metrics and no trace: its
//     Track handles are nil, so a metrics-only run pays for no span.
//   - Metric names follow layer/name{label=value,...}, e.g.
//     "network/link.busy_ns{link=42}" or "pami/ctx.advances{rank=3,ctx=1}".
//     The registry treats the full string as the key; callers cache the
//     returned handle, or attach a field that already holds the count,
//     so name formatting happens once, at setup time. Trace tracks work
//     the same way: a recorder resolves its Track once and records on
//     the handle.
//   - The registry is single-threaded by design: the simulation kernel
//     serializes all simulated threads, so no locking is needed (or
//     provided). The coroutine handoff channels give the race detector
//     the happens-before edges it wants.
//   - All exports are deterministic: iteration is always over sorted
//     keys, trace events carry a monotone sequence number, and no wall
//     clock is ever consulted. Two identical simulation runs produce
//     byte-identical dumps.
//
// Time is virtual nanoseconds. The package deliberately does not import
// internal/sim (sim imports obs for kernel instrumentation); sim.Time is
// an int64 alias, so the two Time types are interchangeable.
package obs

// Time is virtual time in nanoseconds (interchangeable with sim.Time).
type Time = int64

// Registry is the process-wide metrics + trace sink. The zero value is
// not usable; call New. A nil *Registry is a valid no-op sink: every
// method checks the receiver.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	tracks   map[trackKey]*Track // nil when trackCap is 0
	trackCap int
	seq      uint64
}

// Option configures a Registry.
type Option func(*Registry)

// WithTrackCap bounds each trace track's ring buffer to n events (default
// DefaultTrackCap). Long simulations keep the most recent window. n = 0
// makes a metrics-only registry: it keeps no trace, so every span and
// instant recorded into it is dropped before it costs a track, and its
// children (NewChild) keep none either.
func WithTrackCap(n int) Option {
	if n < 0 {
		panic("obs: negative track capacity")
	}
	return func(r *Registry) { r.trackCap = n }
}

// DefaultTrackCap is the default per-track trace ring capacity.
const DefaultTrackCap = 8192

// New returns an empty registry.
func New(opts ...Option) *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		trackCap: DefaultTrackCap,
	}
	for _, o := range opts {
		o(r)
	}
	if r.trackCap > 0 {
		r.tracks = make(map[trackKey]*Track)
	}
	return r
}

// Counter returns (creating if needed) the named counter. Returns nil on
// a nil registry; the nil handle's methods are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Attach makes the field at p a source of the named counter: every export
// and Merge reads its value at that moment, added to whatever Add and the
// counter's other sources contribute. A layer keeps its one count in its
// own field and the registry samples it, instead of counting twice.
// Exports read the field with atomic.LoadUint64, so it must be 64-bit
// aligned, and a writer racing an export bumps it with atomic.AddUint64.
// The registry keeps what p points into reachable for as long as the
// registry lives; every production path records into a sweep child that is
// merged into its parent and then dropped. No-op on a nil registry.
func (r *Registry) Attach(name string, p *uint64) {
	if r == nil {
		return
	}
	c := r.Counter(name)
	if c.first == nil {
		c.first = p
		return
	}
	c.more = append(c.more, p)
}

// Gauge returns (creating if needed) the named gauge. Returns nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram with the
// given upper bucket bounds (see NewHistogram). If the histogram already
// exists the original bounds are kept. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []Time) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}
