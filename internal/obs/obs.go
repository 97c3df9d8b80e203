// Package obs is the process-wide observability layer for the simulation
// stack: a metrics registry (counters, gauges, fixed-bucket histograms,
// and families of per-rank series read from the layers' slabs) plus a
// structured span/event tracer that exports Chrome trace_event JSON
// loadable in Perfetto.
//
// Design rules:
//
//   - Everything hangs off an injectable *Registry. A nil Registry (and
//     the nil handles it yields) is a safe no-op, so instrumented code
//     pays one pointer check and zero allocations when observability is
//     off. A registry made WithTrackCap(0) keeps metrics and no trace: its
//     Track handles are nil, so a metrics-only run pays for no span.
//   - Metric names follow layer/name{label=value,...}, e.g.
//     "armci/op.latency_ns{op=get}". The registry treats the full string
//     as the key; callers cache the returned handle, or attach a field
//     that already holds the count, so name formatting happens once, at
//     setup time. Trace tracks work the same way: a recorder resolves its
//     Track once and records on the handle.
//   - A series per rank, context or link is read from the slab of the
//     layer that keeps it: the layer registers the family once per world,
//     with its label names, the slab's length and an accessor that reads
//     one series, e.g. CounterFamily("pami/ctx.advances", {"rank",
//     "ctx"}, len(contexts), at). The registry keeps no copy and no name
//     per series; its full name, "pami/ctx.advances{rank=3,ctx=1}", is
//     formatted by the exporters alone, which place it where that string
//     would sort, and Merge reads the slab once into the parent. A family
//     and a plain name must not spell the same series.
//   - Handles are values in the registry's own storage: counters, gauges,
//     histograms and bucket arrays are carved from chunks that grow with
//     what the registry has made, so the handles a layer makes together
//     cost a few allocations, and a registry holds at most about twice
//     the handle storage it uses.
//   - A registry's metrics exist once for the life of a run. Merge
//     consumes the child it is given: what the parent lacks moves into it
//     as the same object, and the child is retired (race builds check it;
//     its trace stays readable).
//   - The registry is single-threaded by design and takes no lock. What
//     orders one goroutine's use of it before another's is the
//     simulation's own hand-off: a simulated thread is an iter.Pull
//     coroutine, whose switches the race detector sees as
//     synchronisation, and a lane's registry passes between the lane
//     pool's workers through the pool's start channel and WaitGroup,
//     which the coordinator waits on before it merges.
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
	// Each map is made on its first entry (put), so a registry pays only
	// for the kinds of handle it holds.
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	fams     map[string]*family

	tracks   map[trackKey]*Track // stays nil when trackCap is 0
	trackCap int
	seq      uint64

	store   store
	retired bool // passed to Merge
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
	r := &Registry{trackCap: DefaultTrackCap}
	for _, o := range opts {
		o(r)
	}
	return r
}

// put sets (*m)[k] = v, making the map on its first entry.
func put[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[k] = v
}

// checkLive panics, in race builds, on a registry already passed to
// Merge: what a layer records there after the merge is lost, and a handle
// made there may be one the parent now owns. Counter, Attach, Gauge,
// Histogram, Track and the family registrations check it.
func (r *Registry) checkLive() {
	if raceEnabled && r.retired {
		panic("obs: registry used after it was merged")
	}
}

// Counter returns (creating if needed) the named counter. Returns nil on
// a nil registry; the nil handle's methods are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.checkLive()
	c, ok := r.counters[name]
	if !ok {
		c = r.store.counter()
		put(&r.counters, name, c)
	}
	return c
}

// Attach makes the field at p a source of the named counter: every export
// reads its value at that moment, added to whatever Add and the counter's
// other sources contribute, and Merge samples it into the parent. A layer
// keeps its one count in its own field and the registry samples it,
// instead of counting twice. Exports read the field with
// atomic.LoadUint64, so it must be 64-bit aligned, and a writer racing an
// export bumps it with atomic.AddUint64. The registry keeps what p points
// into reachable until it is merged, which drops the field; every
// production path records into a sweep child that is merged into its
// parent. No-op on a nil registry.
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
	r.checkLive()
	g, ok := r.gauges[name]
	if !ok {
		g = r.store.gauge()
		put(&r.gauges, name, g)
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
	r.checkLive()
	h, ok := r.hists[name]
	if !ok {
		checkBounds(bounds)
		h = r.store.histogram()
		h.bounds, h.counts = bounds, r.store.buckets(len(bounds)+1)
		put(&r.hists, name, h)
	}
	return h
}
