package armci

import (
	"bytes"
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
)

// This file holds a rank's clique table to a dense reference: every fact
// the rank keeps about a peer, stored p-wide the way the runtime once kept
// it (an endpoint cache per context, a fence map, p-sized status vectors,
// the dense region cache, a suspect map), driven by the same operations
// and compared after each one.

// denseClique is one rank's per-peer state with a slot for every rank.
type denseClique struct {
	naive, e2e bool
	window     sim.Time // the retry policy's suspect window

	known   []bool    // the runtime holds a record for the rank
	ep      [][2]bool // data and service endpoints created
	charged int64     // endpoints created, all ranks
	puts    []int
	ams     []int
	cs      [][]uint8 // column 0 cs_tgt, column 1+key cs_mr
	suspect []sim.Time
	cache   *denseCache

	fences                         []int // Fence visits, in order
	conflictFence, conflictAvoided int64
}

func newDenseClique(procs, columns, capacity int, naive, e2e bool, window sim.Time) *denseClique {
	m := &denseClique{
		naive: naive, e2e: e2e, window: window,
		known: make([]bool, procs), ep: make([][2]bool, procs),
		puts: make([]int, procs), ams: make([]int, procs),
		cs: make([][]uint8, procs), suspect: make([]sim.Time, procs),
		cache: newDenseCache(capacity, procs),
	}
	for r := range m.cs {
		m.cs[r] = make([]uint8, columns)
	}
	return m
}

func (m *denseClique) col(key int) int {
	if m.naive || key < 0 {
		return 0
	}
	return 1 + key
}

func (m *denseClique) charge(r int, svc bool) {
	i := 0
	if svc {
		i = 1
	}
	if !m.ep[r][i] {
		m.ep[r][i] = true
		m.charged++
	}
}

// transfer is what a contiguous put or get to r did after its status
// step, by the path the runtime took (rdma). A path the reference's
// suspect window rules out over the whole of [t0, t1] is an error.
func (m *denseClique) transfer(r int, rdma bool, addr mem.Addr, n int, a *Allocation, t0, t1 sim.Time) error {
	if rdma && m.suspect[r] > t1 {
		return fmt.Errorf("RDMA to rank %d, suspect until %d", r, m.suspect[r])
	}
	if !rdma && m.suspect[r] <= t0 {
		return fmt.Errorf("AM fallback to rank %d, which is not suspect", r)
	}
	if !rdma {
		m.charge(r, true)
		return nil
	}
	if !m.cache.lookup(r, addr, n) {
		m.charge(r, true) // the region query
		m.cache.insert(r, a.addrs[r], a.Bytes)
	}
	m.charge(r, false)
	return nil
}

func (m *denseClique) fence(r int) {
	m.fences = append(m.fences, r)
	m.puts[r], m.ams[r] = 0, 0
	clear(m.cs[r])
}

func (m *denseClique) allFence() {
	for r := range m.puts {
		if m.puts[r] != 0 || m.ams[r] != 0 {
			m.fence(r)
		}
	}
	for r := range m.cs {
		clear(m.cs[r])
	}
}

// admitRead is admitRead's verdict on a get from (r, key).
func (m *denseClique) admitRead(r, key int) {
	row := m.cs[r]
	conflict := row[0]&csWrite != 0 || !m.naive && key >= 0 && row[1+key]&csWrite != 0
	naiveWould := slices.ContainsFunc(row, func(s uint8) bool { return s&csWrite != 0 })
	switch {
	case conflict:
		m.conflictFence++
		m.fence(r)
	case naiveWould:
		m.conflictAvoided++
	}
	row[m.col(key)] |= csRead
}

// compare returns the first difference between rt's clique table and
// region cache and the reference, or nil.
func (m *denseClique) compare(rt *Runtime) error {
	c := &rt.peers
	clique, dirty := 0, 0
	for r := range m.known {
		pos := c.find(r)
		if (pos >= 0) != m.known[r] {
			return fmt.Errorf("rank %d: record at %d, reference holds one: %v", r, pos, m.known[r])
		}
		var rec peer
		var row []uint8
		if pos >= 0 {
			rec, row = *c.at(pos), c.row(pos)
		}
		if ep := [2]bool{rec.flags&peerData != 0, rec.flags&peerSvc != 0}; ep != m.ep[r] {
			return fmt.Errorf("rank %d: endpoints %v, reference %v", r, ep, m.ep[r])
		}
		if m.ep[r] != [2]bool{} {
			clique++
		}
		if int(rec.puts) != m.puts[r] || int(rec.ams) != m.ams[r] {
			return fmt.Errorf("rank %d: fence counts %d/%d, reference %d/%d", r, rec.puts, rec.ams, m.puts[r], m.ams[r])
		}
		if m.puts[r] != 0 || m.ams[r] != 0 {
			dirty++
		}
		for col := range max(len(row), len(m.cs[r])) {
			var got, want uint8
			if col < len(row) {
				got = row[col]
			}
			if col < len(m.cs[r]) {
				want = m.cs[r][col]
			}
			if got != want {
				return fmt.Errorf("rank %d: status column %d is %#x, reference %#x", r, col, got, want)
			}
		}
		if rec.suspect != m.suspect[r] {
			return fmt.Errorf("rank %d: suspect until %d, reference %d", r, rec.suspect, m.suspect[r])
		}
		got, want := rt.cache().entries(r), m.cache.byRank[r]
		if !slices.Equal(got, want) {
			return fmt.Errorf("rank %d: regions %v, reference %v", r, got, want)
		}
	}
	rc := &rt.regions
	switch {
	case rt.Clique() != clique:
		return fmt.Errorf("Clique() = %d, reference %d", rt.Clique(), clique)
	case rt.Stats[statEpCreated] != m.charged:
		return fmt.Errorf("%d endpoints charged, reference %d", rt.Stats[statEpCreated], m.charged)
	case c.dirty != dirty:
		return fmt.Errorf("%d dirty records, reference %d", c.dirty, dirty)
	case rc.total != m.cache.Len() || rc.Hits != m.cache.Hits || rc.Misses != m.cache.Misses || rc.Evicted != m.cache.Evicted:
		return fmt.Errorf("region cache len/hits/misses/evicted %d/%d/%d/%d, reference %d/%d/%d/%d",
			rc.total, rc.Hits, rc.Misses, rc.Evicted, m.cache.Len(), m.cache.Hits, m.cache.Misses, m.cache.Evicted)
	case rt.Stats[statFence] != int64(len(m.fences)):
		return fmt.Errorf("%d fences, reference %d", rt.Stats[statFence], len(m.fences))
	case rt.Stats[statConflictFence] != m.conflictFence || rt.Stats[statConflictAvoided] != m.conflictAvoided:
		return fmt.Errorf("conflict fenced/avoided %d/%d, reference %d/%d", rt.Stats[statConflictFence],
			rt.Stats[statConflictAvoided], m.conflictFence, m.conflictAvoided)
	}
	return nil
}

// cliqueStep is one step of a generated history. Every rank walks the
// same list: the collective steps (Malloc, Free) on all of them, the rest
// on the driving rank alone, a barrier after each.
type cliqueStep struct {
	kind   int
	target int
	alloc  int // a live allocation, modulo their number
	off, n int // n bytes at off in the target's block, both fractions of it in 1/64ths
	size   int // Malloc
	sleep  sim.Time
}

const (
	stepPut = iota
	stepGet
	stepAcc
	stepFence
	stepAllFence
	stepMalloc
	stepFree
	stepSuspect
	stepIdle
)

const cliqueMaxLive = 3

func genCliqueSteps(rng *rand.Rand, procs, n int, chaos bool) []cliqueStep {
	steps := []cliqueStep{{kind: stepMalloc, size: 1024}}
	for len(steps) < n {
		st := cliqueStep{target: rng.Intn(procs), alloc: rng.Intn(cliqueMaxLive), off: rng.Intn(64), n: 1 + rng.Intn(64)}
		switch k := rng.Intn(100); {
		case k < 26:
			st.kind = stepPut
		case k < 52:
			st.kind = stepGet
		case k < 64:
			st.kind = stepAcc
		case k < 71:
			st.kind = stepFence
		case k < 76:
			st.kind = stepAllFence
		case k < 83:
			st.kind, st.size = stepMalloc, 8*(32+rng.Intn(512))
		case k < 88:
			st.kind = stepFree
		case k < 95 && chaos:
			st.kind = stepSuspect
		case chaos:
			st.kind, st.sleep = stepIdle, sim.Time(rng.Intn(12))*sim.Millisecond
		default:
			st.kind = stepGet
		}
		steps = append(steps, st)
	}
	return append(steps, cliqueStep{kind: stepAllFence})
}

var fenceInstant = regexp.MustCompile(`"name":"fence","cat":"fence","args":\{"arg":(-?\d+)\}`)

// cliqueShelf is the shelf every history runs on, so that each one's
// clique tables are the ones the history before it left, reset: records
// past their length with their buckets' room, an index and a status
// matrix larger than a fresh table's. What a table does — fence visits in
// ascending rank among them — must not depend on what it kept. Before the
// first history a world wider than any of them, whose every rank
// addresses every peer, grows every table it will lend.
var cliqueShelf sharedShelf

type sharedShelf struct {
	sync.Mutex
	s *Shelf
}

func (c *sharedShelf) get() *Shelf {
	if c.s == nil {
		c.s = NewShelf()
		const procs = 65
		MustRun(Config{Procs: procs, ProcsPerNode: 4, AsyncThread: true, Shelf: c.s}, func(th *sim.Thread, rt *Runtime) {
			a := rt.Malloc(th, 64)
			for r := range procs {
				rt.Put(th, a.At(rt.Rank).Addr, a.At(r), 8)
			}
			rt.AllFence(th)
		})
	}
	return c.s
}

// runCliqueHistory drives one world through a generated history and
// compares the driving rank against the reference after every step.
func runCliqueHistory(t *testing.T, seed int64, procs int, chaos, naive bool, capacity int) {
	rng := rand.New(rand.NewSource(seed))
	steps := genCliqueSteps(rng, procs, 40+rng.Intn(80), chaos)
	driver := rng.Intn(procs)
	reg := obs.New(obs.WithTrackCap(1 << 16)) // room for every record of the driving rank
	cliqueShelf.Lock()
	defer cliqueShelf.Unlock()
	cfg := Config{Procs: procs, ProcsPerNode: 4, AsyncThread: true, RegionCacheCap: capacity, Obs: reg,
		Shelf: cliqueShelf.get()}
	if naive {
		cfg.Consistency = ConsistencyNaive
	}
	if chaos {
		cfg.Fault = fault.NewPlan(uint64(seed)) // no faults: suspect windows come from the history
	}
	m := newDenseClique(procs, 1+cliqueMaxLive, capacity, naive, chaos, defaultRetry.SuspectWindow)
	failed := false
	_, err := Run(cfg, func(th *sim.Thread, rt *Runtime) {
		var live []*Allocation
		var local mem.Addr
		if rt.Rank == driver {
			local = rt.LocalAlloc(th, 8<<10)
		}
		for i, st := range steps {
			if err := cliqueStepOn(th, rt, m, &live, local, st, rt.Rank == driver && !failed); err != nil {
				t.Errorf("seed %d, p %d, chaos %v, naive %v, cap %d: step %d (%+v): %v",
					seed, procs, chaos, naive, capacity, i, st, err)
				failed = true
			}
			rt.Barrier(th)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		return
	}
	// AllFence's visits, in ascending rank, and every other fence, in the
	// order the driving rank's trace recorded them.
	var tb bytes.Buffer
	if err := reg.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	var visits []int
	for _, g := range fenceInstant.FindAllSubmatch(tb.Bytes(), -1) {
		r, _ := strconv.Atoi(string(g[1]))
		visits = append(visits, r)
	}
	if !slices.Equal(visits, m.fences) {
		t.Errorf("seed %d: fence visits %v, reference %v", seed, visits, m.fences)
	}
}

// cliqueStepOn runs st on rt, and when drive is set issues its one-sided
// operation, applies it to the reference and compares.
func cliqueStepOn(th *sim.Thread, rt *Runtime, m *denseClique, live *[]*Allocation, local mem.Addr, st cliqueStep, drive bool) error {
	switch st.kind {
	case stepMalloc:
		if len(*live) == cliqueMaxLive {
			return nil
		}
		a := rt.Malloc(th, st.size)
		*live = append(*live, a)
		if drive {
			m.cache.insertExchange(rt.Rank, a.addrs, a.reg, a.Bytes)
		}
	case stepFree:
		if len(*live) == 0 {
			return nil
		}
		i := st.alloc % len(*live)
		a := (*live)[i]
		*live = slices.Delete(*live, i, i+1)
		rt.Free(th, a)
		if drive {
			for r, base := range a.addrs {
				m.cache.purge(r, base)
			}
		}
	}
	if !drive {
		return nil
	}
	r := st.target
	switch st.kind {
	case stepPut, stepGet, stepAcc:
		if len(*live) == 0 {
			return nil
		}
		a := (*live)[st.alloc%len(*live)]
		off := a.Bytes * st.off / 64 &^ 7
		n := max(8, (a.Bytes-off)*st.n/64&^7)
		ptr := GlobalPtr{Rank: r, Addr: a.addrs[r] + mem.Addr(off)}
		key := rt.allocKey(ptr)
		before, t0 := rt.Stats, th.Now()
		var err error
		switch st.kind {
		case stepPut:
			if err = rt.PutErr(th, local, ptr, n); err == nil {
				m.known[r] = true
				if !m.e2e {
					m.cs[r][m.col(key)] |= csWrite
				}
				rdma := rt.Stats[statPutRdma] > before[statPutRdma]
				if !rdma && !m.e2e {
					return fmt.Errorf("a healthy run's put to rank %d took the AM path", r)
				}
				err = m.transfer(r, rdma, ptr.Addr, n, a, t0, th.Now())
				if rdma && !m.e2e {
					m.puts[r]++
				}
			}
		case stepGet:
			m.known[r] = true
			m.admitRead(r, key)
			if err = rt.GetErr(th, ptr, local, n); err == nil {
				err = m.transfer(r, rt.Stats[statGetRdma] > before[statGetRdma], ptr.Addr, n, a, t0, th.Now())
			}
		case stepAcc:
			if err = rt.AccErr(th, local, ptr, n, 1.0); err == nil {
				m.known[r] = true
				if !m.e2e {
					m.cs[r][m.col(key)] |= csWrite
				}
				m.charge(r, true)
			}
		}
		if err != nil {
			return err
		}
		if rt.Stats[statTimeout] != 0 {
			return fmt.Errorf("an operation timed out on a plan without faults")
		}
	case stepFence:
		rt.Fence(th, r)
		m.fence(r)
	case stepAllFence:
		rt.AllFence(th)
		m.allFence()
	case stepSuspect:
		pos := rt.peers.find(r)
		if pos < 0 {
			return nil // a suspect window opens only on a peer an operation reached
		}
		rt.markSuspect(pos)
		m.suspect[r] = rt.C.Ln.Now() + m.window
		m.cache.purgeRank(r)
	case stepIdle:
		th.Sleep(st.sleep)
	}
	return m.compare(rt)
}

// FuzzCliqueMatchesDense drives a world of up to 64 ranks through a
// history of puts, gets, accumulates, fences, AllFences, Mallocs and
// Frees (and, on a chaos run, suspect windows and idle spells) that one
// seed generates, and holds the driving rank's clique table to the dense
// reference after every step: records, endpoint charges, fence counts,
// the cs_tgt/cs_mr status and the verdicts read from it, region contents
// and victim order, suspect windows; and, at the end, the fence visits in
// the order they were made. Every history runs on the clique tables the
// one before it left on a shared shelf (cliqueShelf). The seeds run in the
// ordinary test suite.
func FuzzCliqueMatchesDense(f *testing.F) {
	f.Add(int64(1), uint8(6), false, false, uint8(0)) // p = 8
	f.Add(int64(2), uint8(22), false, true, uint8(1))
	f.Add(int64(3), uint8(62), false, false, uint8(2)) // p = 64
	f.Add(int64(4), uint8(14), true, false, uint8(3))
	f.Add(int64(5), uint8(38), true, true, uint8(1))
	f.Add(int64(6), uint8(3), true, false, uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, procs uint8, chaos, naive bool, capPick uint8) {
		p := 2 + int(procs)%63
		capacity := []int{4096, 1, 7, 40}[capPick%4]
		runCliqueHistory(t, seed, p, chaos, naive, capacity)
	})
}
