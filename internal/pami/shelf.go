package pami

import (
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/topology"
)

// flightBatch is how many flights a lane takes from its shelf or gives
// back at once.
const flightBatch = 16

// Shelf is what the worlds of one owner recycle, one world at a time:
// active-message, put and get flights, payload buffers and the ranks'
// heaps (mem.Space, whose buffers are payload classes), the slabs of the
// ranks' spaces, clients and contexts, the kernel's lanes with their
// arrays and threads (sim.KeptLanes) and the last world's torus. A world's
// lanes hold the shelf's lists while it runs (hold). Everything of a world
// stays readable until the shelf lends the next world; then it is given
// back (GiveBack): every rank's heap and every lane's lists go back to
// the shelf, and every space, client and context the world used is reset
// in place, so that only what it grew — a table's room, a queue's array —
// survives, and the next world starts on what this one made. The sweep
// engine keeps one shelf per task it runs at once (armci.Config.Shelf),
// so recycling outlives a world and a collection alike: a run's
// allocation count is a function of its config and of the runs its owner
// ran before, never of GC history. A machine built without a shelf makes
// a private one that dies with it.
//
// A flight and its payload go back after the flight's last event, chaos
// or not: the network counts the copies of a message it delivers
// (network.Msg.Release). One it dropped is never freed; settle reclaims it
// with every flight the world left in flight. A world whose kernel did not
// finish (sim.Kernel.Finished) gives no slab back: the next world makes
// its own. Under the race detector the elements a world used are poisoned
// and dropped instead of reset, so a read of a world after the next one
// was lent fails loudly.
type Shelf struct {
	am   mem.Stock[amFlight]
	put  mem.Stock[putFlight]
	get  mem.Stock[getFlight]
	bufs mem.Stocks
	// lanes are the lane holders, reused by every world lent the shelf: a
	// world costs them nothing once one as wide has run. The last world
	// lent it used the first used of them.
	lanes []hold
	used  int
	kept  sim.KeptLanes
	torus *topology.Torus
	// The rank slabs, each as long as the most ranks (contexts) a world
	// lent the shelf had; the last machine lent it uses a prefix of each,
	// and every element past that prefix is reset.
	spaces   []mem.Space
	clients  []Client
	contexts []Context
	m        *Machine // the last machine lent the shelf, until GiveBack
}

// NewShelf returns an empty shelf.
func NewShelf() *Shelf {
	s := new(Shelf)
	s.am.Init(flightBatch, true)
	s.put.Init(flightBatch, true)
	s.get.Init(flightBatch, true)
	s.bufs.Init()
	return s
}

// hold is what one lane of a running world holds: a free list per flight
// kind and per payload class. It takes no lock, because only the lane's
// own events use it. A flight or payload is released on the lane whose
// event finishes with it, which may not be the lane that took it, so a
// list that runs dry refills from the shelf and one that grows gives a
// batch back.
type hold struct {
	am   mem.Free[amFlight]
	put  mem.Free[putFlight]
	get  mem.Free[getFlight]
	bufs mem.Classes
}

// lend gives the last machine's world back and lends m its lanes'
// holders, rank slabs and, of the shelf's lists, all it will recycle.
func (s *Shelf) lend(m *Machine, lanes, procs, contexts int) {
	s.GiveBack()
	s.m = m
	if lanes > len(s.lanes) {
		hs := make([]hold, lanes)
		copy(hs, s.lanes)
		for i := len(s.lanes); i < lanes; i++ {
			h := &hs[i]
			h.am.Link(&s.am)
			h.put.Link(&s.put)
			h.get.Link(&s.get)
			h.bufs.Link(&s.bufs)
		}
		s.lanes = hs
	}
	s.used = lanes
	m.holds = s.lanes[:lanes]
	m.spaces = slab(&s.spaces, procs)
	m.clients = slab(&s.clients, procs)
	m.contexts = slab(&s.contexts, contexts)
}

// slab returns the first n elements of *kept, first replacing it with n
// new ones when it is shorter: a slab is never grown in place, since its
// elements point into themselves.
func slab[T any](kept *[]T, n int) []T {
	if n > len(*kept) {
		*kept = make([]T, n)
	}
	return (*kept)[:n]
}

// GiveBack ends the last machine's world, as lending the next one does
// first: every rank's heap goes back, then every space, client and
// context the world used is reset, or, if its kernel did not finish,
// dropped with its slab, and the lanes' lists go back (settle). The
// kernel's lanes are given back by their own owner (sim.KeptLanes). A
// no-op when no machine holds the shelf.
func (s *Shelf) GiveBack() {
	m := s.m
	if m == nil {
		return
	}
	s.m = nil
	for i := range m.spaces {
		m.spaces[i].Release()
	}
	switch {
	case !m.K.Finished():
		s.spaces, s.clients, s.contexts = nil, nil, nil
	case raceEnabled:
		for i := range m.clients {
			m.clients[i].poison()
		}
		for i := range m.contexts {
			m.contexts[i].poison()
		}
		s.spaces, s.clients, s.contexts = nil, nil, nil
	default:
		for i := range m.spaces {
			m.spaces[i].Reset()
		}
		for i := range m.clients {
			m.clients[i].reset()
		}
		for i := range m.contexts {
			m.contexts[i].reset()
		}
	}
	s.settle()
}

// Lanes returns the lanes a world's kernel is to run on
// (sim.Kernel.ConfigureLanes); they go back when the next kernel takes
// them.
func (s *Shelf) Lanes() *sim.KeptLanes { return &s.kept }

// Torus returns the torus for p processes at c per node: the last world's,
// if it had that shape, else a new one the shelf keeps. A torus is
// read-only but for its route cache, which only its world's serial
// boundary writes, so worlds that run one after another share it.
func (s *Shelf) Torus(p, c int) *topology.Torus {
	if t := s.torus; t == nil || t.ProcsPerNode != c || t.Nodes() != (p+c-1)/c {
		s.torus = topology.ForProcs(p, c)
	}
	return s.torus
}

// settle ends the last world's use of the shelf's lists. Every flight
// the shelf has made is free again, those still in flight when the world
// stopped included: it has ended. Every payload buffer a lane holds goes
// back to the stocks, which drop the classes above mem.KeepMax.
func (s *Shelf) settle() {
	for i := range s.lanes[:s.used] {
		h := &s.lanes[i]
		h.am.Drop()
		h.put.Drop()
		h.get.Drop()
		h.bufs.Flush()
	}
	s.am.Reclaim()
	s.put.Reclaim()
	s.get.Reclaim()
	s.bufs.Trim()
}

// hold returns what the client's lane holds.
func (c *Client) hold() *hold { return &c.M.holds[c.Ln.Index()] }

// Bufs returns the payload classes of the client's lane: where the rank's
// active-message payloads come from (Borrow, Buf). pami hands each back
// once its handler has run.
func (c *Client) Bufs() *mem.Classes { return &c.hold().bufs }
