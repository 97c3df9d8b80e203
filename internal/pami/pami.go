// Package pami reimplements the semantics of IBM's Parallel Active
// Messaging Interface on the simulated Blue Gene/Q machine: clients,
// communication contexts, endpoints, memory regions, RDMA put/get, active
// messages, and read-modify-write.
//
// The property the paper's results hinge on is modeled exactly: RDMA
// transfers complete in pure network time with no remote CPU involvement,
// while active messages and read-modify-writes are only processed when
// some thread advances the target context's progress engine. BG/Q's
// network hardware has no generic atomic support, so PAMI Rmw is
// implemented over active messages and inherits the progress requirement
// (§III.D of the paper).
package pami

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Machine ties the simulated processes together: one address space per
// rank, the shared torus network, and the rank->client registry used to
// deliver traffic. Everything a rank owns at this layer — its space, its
// client, its contexts — is an element of a slab its shelf lends, which
// the rank's own thread initialises in place (NewClient, CreateContexts):
// bring-up allocates per machine at most, not per rank.
type Machine struct {
	K   *sim.Kernel
	Net *network.Network
	P   *network.Params
	// SeedBase perturbs every client's jitter stream; runs with different
	// seeds explore different (still deterministic) timing interleavings.
	SeedBase uint64
	spaces   []mem.Space
	clients  []Client
	contexts []Context  // the same number of consecutive slots for every rank
	ctxHists []ctxHists // per (lane, context index): laneCtxHists; nil without a registry
	shelf    *Shelf
	holds    []hold // per lane: what it recycles, lent by shelf
}

// NewMachine builds a machine for every rank of the torus partition on
// kernel k, with room for ctxPerRank contexts on each (ρ in the paper).
// Lanes and observability are the kernel's: set them up first
// (Kernel.SetObs, then ConfigureLanes); the machine, its network and
// every client ask the kernel for a node's lane and record into that
// lane's registry. The machine's ranks and lanes recycle through shelf,
// which lends the next machine only once this one's world has ended; nil
// makes a private one.
func NewMachine(k *sim.Kernel, torus *topology.Torus, p *network.Params, ctxPerRank int, shelf *Shelf) *Machine {
	n := torus.Procs()
	if shelf == nil {
		shelf = NewShelf()
	}
	m := &Machine{
		K:     k,
		Net:   network.New(k, torus, p),
		P:     p,
		shelf: shelf,
	}
	shelf.lend(m, max(1, len(k.Lanes())), n, n*ctxPerRank)
	for r := range m.spaces {
		// Only the rank's own lane allocates in its space.
		m.spaces[r].Link(&m.holds[k.LaneOf(torus.NodeOf(r)).Index()].bufs)
	}
	if r := k.Obs(); r != nil {
		m.ctxHists = make([]ctxHists, max(1, len(k.Lanes()))*ctxPerRank)
		m.observe(r, ctxPerRank)
	}
	return m
}

// observe registers the contexts' per-(rank, ctx) families on r, read
// from the machine's context slab: the counts of every created context,
// and the starvation gauge of every context advanced at least once.
func (m *Machine) observe(r *obs.Registry, per int) {
	names := []string{"rank", "ctx"}
	family := func(name string, v func(x *Context) int64) {
		r.CounterFamily(name, names, len(m.contexts), func(i int) (obs.Series, bool) {
			x := &m.contexts[i]
			return obs.Series{Labels: [2]int32{int32(i / per), int32(i % per)}, V: v(x)}, x.Client != nil
		})
	}
	family("pami/ctx.advances", func(x *Context) int64 { return int64(x.Advances) })
	family("pami/ctx.items_served", func(x *Context) int64 { return int64(x.ItemsServed) })
	family("pami/ctx.ams_served", func(x *Context) int64 { return int64(x.AMsServed) })
	family("pami/ctx.lock.acquired", func(x *Context) int64 { return int64(x.Lock.Acquired) })
	family("pami/ctx.lock.contended", func(x *Context) int64 { return int64(x.Lock.Contended) })
	r.GaugeFamily("pami/ctx.starve_max_ns", names, len(m.contexts), func(i int) (obs.Series, bool) {
		x := &m.contexts[i]
		return obs.Series{Labels: [2]int32{int32(i / per), int32(i % per)}, V: x.StarveMax}, x.Advances > 0
	})
}

// Procs returns the number of ranks.
func (m *Machine) Procs() int { return m.Net.Torus().Procs() }

// faulty reports whether the machine's network has a fault injector
// installed. Protocol paths branch on it to arm their recovery variants:
// end-to-end put completion, duplicate-request deduplication, tolerant
// reply handling. One pointer chase + nil check on the hot path.
func (m *Machine) faulty() bool { return m.Net.Fault() != nil }

// Space returns rank's address space.
func (m *Machine) Space(rank int) *mem.Space { return &m.spaces[rank] }

// Client returns rank's PAMI client, or nil before creation.
func (m *Machine) Client(rank int) *Client {
	if c := &m.clients[rank]; c.created {
		return c
	}
	return nil
}

// Endpoint addresses a (rank, context) pair, resolved to a node for
// routing. PAMI endpoints are how every communication operation names its
// peer.
type Endpoint struct {
	Rank int
	Ctx  int
	Node int
}

// Client is a process's PAMI communication client: it owns that process's
// contexts, memory-region registry, and accounting. One client per rank,
// as on the real machine. Clients and contexts live in their machine's
// slices and are only ever handled by pointer.
type Client struct {
	_     sim.NoCopy
	M     *Machine
	Rank  int
	Node  int
	Space *mem.Space
	RNG   sim.RNG

	// Ln is the simulation lane this client's node belongs to; all of the
	// client's local scheduling — ack delays, MU turnaround, progress
	// timers — goes through it. Obs is the lane's registry (nil when
	// observability is off), which the client's contexts record into.
	Ln  *sim.Lane
	Obs *obs.Registry

	// Contexts are the client's contexts, in creation order: a prefix of
	// the rank's slots in the machine. Take &c.Contexts[i]; a copy of a
	// Context is not a context.
	Contexts []Context

	// The places of the client's threads in its contexts' progress engine
	// (engine.go).
	cursors [2]cursor

	// Cookie is what the layer above keeps for the rank — ARMCI's runtime
	// — and its handlers find through the context they serve (PAMI's
	// dispatch cookie).
	Cookie any

	// MaxRegions bounds how many memory regions the process may register;
	// registration beyond it fails, exercising ARMCI's fallback protocols.
	// Zero means unlimited.
	MaxRegions int
	// The registry. A process's first two registrations — most ranks make
	// no more — are regionFirst, and the registry starts on regionArr; a
	// region is never handed out twice in a world, so a deregistered
	// region's pointer never names a later one. Regions made past the
	// first two are listed through MemRegion.next: made holds this world's,
	// spare those of the client's earlier worlds, which the next
	// registrations take (RegisterMemory).
	regions     []*MemRegion
	regionArr   [2]*MemRegion
	regionFirst [2]MemRegion
	regionsMade int
	made, spare *MemRegion

	// Accounting for the Table II space model.
	EndpointsCreated int
	EndpointBytes    int
	RegionBytes      int
	ContextBytes     int

	// Read-modify-writes begun and not yet ended, and ended slots for the
	// next RmwBegin. A rank rarely has more than one outstanding, so the
	// first slot and both tables' first entries are fields (NewClient).
	rmwSeq     uint64
	rmwPend    []*rmwPending
	rmwFree    []*rmwPending
	rmwFirst   rmwPending
	rmwPendArr [1]*rmwPending
	rmwFreeArr [1]*rmwPending

	created bool // NewClient has returned: peers may address this rank

	// rmwApplied dedups read-modify-write requests under fault injection,
	// target-side: it keeps the prior value of each request an initiator
	// may still re-send, so a duplicated or retried one is answered from
	// it instead of re-applied. Only chaos runs fill it.
	rmwApplied Dedup
}

// RmwApplied returns the client's memory of the read-modify-writes it
// applied for its initiators.
func (c *Client) RmwApplied() *Dedup { return &c.rmwApplied }

// NewClient creates rank's client, charging the documented creation cost.
// It must be called from the owning rank's thread before any
// communication involving that rank.
func (m *Machine) NewClient(th *sim.Thread, rank int) *Client {
	c := &m.clients[rank]
	if c.created {
		panic(fmt.Sprintf("pami: client for rank %d already exists", rank))
	}
	c.M = m
	c.Rank = rank
	c.Node = m.Net.Torus().NodeOf(rank)
	c.Space = &m.spaces[rank]
	c.RNG.Seed(m.SeedBase ^ (uint64(rank)*0x9e37 + 1))
	per := len(m.contexts) / len(m.clients)
	c.Contexts = m.contexts[rank*per : rank*per : (rank+1)*per]
	c.Ln = m.K.LaneOf(c.Node)
	c.Obs = c.Ln.Obs()
	if c.regions == nil {
		c.regions = c.regionArr[:0]
	}
	if c.rmwPend == nil {
		c.rmwPend, c.rmwFree = c.rmwPendArr[:0], c.rmwFreeArr[:0]
	}
	c.rmwFree = append(c.rmwFree, &c.rmwFirst)
	th.Sleep(c.jit(m.P.ClientCreateTime))
	c.created = true
	return c
}

// reset empties the client, whose world has ended, for its rank's next
// world, in place: only the room its tables grew survives, and the
// regions it made, for the next world's registrations.
func (c *Client) reset() {
	spare := c.spare
	for r := c.made; r != nil; {
		next := r.next
		*r = MemRegion{next: spare}
		spare, r = r, next
	}
	clear(c.regions)
	clear(c.rmwPend)
	clear(c.rmwFree)
	c.rmwApplied.Reset()
	c.rmwFirst.comp.Reuse(nil) // emptied, with the room a retried rmw grew its waiter list to
	*c = Client{
		regions:    c.regions[:0],
		spare:      spare,
		rmwPend:    c.rmwPend[:0],
		rmwFree:    c.rmwFree[:0],
		rmwFirst:   rmwPending{comp: c.rmwFirst.comp},
		rmwApplied: c.rmwApplied,
	}
}

// poison marks a client whose world has ended and which is not reused, so
// that a reader that outlived the world fails (race builds only).
func (c *Client) poison() { *c = Client{Rank: -1} }

// jit perturbs a software cost by the configured jitter fraction.
func (c *Client) jit(t sim.Time) sim.Time {
	return c.RNG.Jitter(t, c.M.P.JitterFrac)
}

// CreateContexts creates n communication contexts, charging the measured
// 3.8-4.3 ms creation cost for each (Table II). A client cannot hold more
// contexts than its machine was built with.
func (c *Client) CreateContexts(th *sim.Thread, n int) {
	if have := len(c.Contexts); have+n > cap(c.Contexts) {
		panic(fmt.Sprintf("pami: rank %d: %d contexts requested, machine built for %d per rank",
			c.Rank, have+n, cap(c.Contexts)))
	}
	for i := 0; i < n; i++ {
		th.Sleep(c.jit(c.M.P.ContextCreateTime))
		index := len(c.Contexts)
		c.Contexts = c.Contexts[:index+1]
		newContext(c, index)
		c.ContextBytes += c.M.P.ContextBytes
	}
}

// CreateEndpoint creates an endpoint addressing (rank, ctxIdx), charging
// β (0.3 µs) and accounting α (4 B). Endpoint creation is local: no
// traffic is generated.
func (c *Client) CreateEndpoint(th *sim.Thread, rank, ctxIdx int) Endpoint {
	th.Sleep(c.jit(c.M.P.EndpointCreateTime))
	c.EndpointsCreated++
	c.EndpointBytes += c.M.P.EndpointBytes
	return Endpoint{Rank: rank, Ctx: ctxIdx, Node: c.M.Net.Torus().NodeOf(rank)}
}

// peer returns the client owning a rank; communication with a rank whose
// client does not exist yet is a setup-ordering bug.
func (c *Client) peer(rank int) *Client {
	p := &c.M.clients[rank]
	if !p.created {
		panic(fmt.Sprintf("pami: rank %d has no client yet", rank))
	}
	return p
}
