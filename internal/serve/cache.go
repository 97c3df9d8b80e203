package serve

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// lru is the one budgeted least-recently-used map, under the result
// cache, the parse memo and the run registry's id memory: each entry is
// charged a cost, one dearer than max is not stored, and the least
// recently used go until the charged total fits the budget again.
// Callers hold mu (the run registry, its own lock) around touch and add,
// and index items themselves, so the memo's lookup converts no bytes.
// evictions is read without a lock, so it moves atomically.
type lru[K comparable, V any] struct {
	evictions         uint64 // first: attached to the registry, so 64-bit aligned
	mu                sync.Mutex
	budget, max, used int64
	ll                list.List // front = most recently used; values are *lruEntry
	items             map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

// touch marks el most recently used and returns its value.
func (l *lru[K, V]) touch(el *list.Element) V {
	l.ll.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val
}

// add stores v under k at cost, replacing what k held, then evicts from
// the least recently used end until the budget holds. An entry dearer
// than max is refused and k keeps what it held.
func (l *lru[K, V]) add(k K, v V, cost int64) {
	if cost > l.max {
		return
	}
	if el, ok := l.items[k]; ok {
		l.used -= el.Value.(*lruEntry[K, V]).cost
		l.ll.Remove(el)
	} else if l.items == nil {
		l.items = make(map[K]*list.Element)
	}
	l.items[k] = l.ll.PushFront(&lruEntry[K, V]{k, v, cost})
	l.used += cost
	for l.used > l.budget {
		back := l.ll.Back()
		e := back.Value.(*lruEntry[K, V])
		l.ll.Remove(back)
		delete(l.items, e.key)
		l.used -= e.cost
		atomic.AddUint64(&l.evictions, 1)
	}
}

// setGauges sets reg's prefix.entries and prefix.bytes to what l holds.
func (l *lru[K, V]) setGauges(reg *obs.Registry, prefix string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	reg.Gauge(prefix + ".entries").Set(int64(len(l.items)))
	reg.Gauge(prefix + ".bytes").Set(l.used)
}

// Cache is the content-addressed result cache: canonical-config-hash →
// rendered artifact bytes, LRU-evicted under a byte-size budget that
// charges each entry its body's length. Because results are
// deterministic, entries never go stale — eviction exists only to bound
// memory. Safe for concurrent use.
type Cache struct{ lru[string, artifact] }

// artifact is one materialized result as a local tier holds it: the bytes
// plus what the cluster export endpoint (GET /v1/results/{hash}) declares
// with them — the scenario/format labels and the body's SHA-256, carried
// from tier to tier so an artifact is hashed once per tier crossing and
// exports never re-hash on the serving side.
type artifact struct {
	body     []byte
	scenario string
	format   string
	sha      string // hex SHA-256 of body
}

// NewCache builds a cache bounded to budget bytes of artifact payload
// (bookkeeping overhead is not counted).
func NewCache(budget int64) *Cache {
	return &Cache{lru[string, artifact]{budget: budget, max: budget}}
}

// Get returns the artifact stored under key, marking it most recently
// used. The returned body is shared — callers must treat it as immutable.
func (c *Cache) Get(key string) (artifact, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return c.touch(el), true
	}
	return artifact{}, false
}

// Put stores body under key and evicts least-recently-used entries until
// the byte budget holds again. A body larger than the whole budget is
// not stored at all (it would only evict everything else to then be
// evicted itself). Re-putting an existing key replaces its body.
func (c *Cache) Put(key string, body []byte, scenario, format string) {
	c.put(key, artifact{body, scenario, format, sha256Hex(body)})
}

// put is Put for a caller that already holds the body's hash — the disk
// tier verified it on load, a fill computed it for the entry's header.
func (c *Cache) put(key string, a artifact) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.add(key, a, int64(len(a.body)))
}

// sha256Hex is the hex SHA-256 every tier declares an artifact under.
func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// parseMemoBytes is the parse memo's whole budget, and parseMemoMaxEntry
// the most one spelling may take of it: a body that large is parsed every
// time it is posted sooner than it evicts a dozen ordinary ones. At the
// sizes clients post (100–300 bytes, so 450–650 accounted) the budget
// holds some 250 spellings. What the memo holds is live heap, and simd's
// resident set follows its live heap three times over (the sweep engine
// runs the process at GOGC=200): on the repo benchmark's serve_read_mix,
// 1024 spellings under a Zipf stream, 128 KiB answers four posts in five
// from the memo for 3–4 % of resident set, and 1 MiB answers all of them
// for 7–9 % (EXPERIMENTS.md has the table).
const (
	parseMemoBytes    = 128 << 10
	parseMemoMaxEntry = parseMemoBytes / 16
)

// memoEntryOverhead is what an entry costs beyond its bytes and strings:
// the identity (96 bytes), the lruEntry and the list element (48 each,
// by size class), and the entry's share of the map's slots at their usual
// load (≈ 60).
const memoEntryOverhead = 256

// parseMemo remembers, for the exact bytes of a request body on one
// route, the identity the full strict parse gave them, so a re-posted
// body skips decode → canon → marshal → hash. It holds identities only:
// whatever is not answered from the LRU or the disk tier parses again for
// the canonical body and the spec. LRU-evicted under a byte budget that
// counts the whole entry, not just its payload. Safe for concurrent use.
//
// Nothing but handleJob fills it, and only with what parseJob returned
// for those same bytes: no body reaches an entry without having passed
// the strict parse, and a re-spelled body is a different entry under the
// same key.
type parseMemo struct {
	hits, misses uint64 // first: attached to the registry, so 64-bit aligned
	lru[memoKey, *identity]
}

// memoKey is a body on a route: the same bytes posted to /v1/run and to
// /v1/compose are two submissions with two answers.
type memoKey struct {
	kind envelopeKind
	raw  string
}

// get returns the identity memoised for raw on kind's route, marking it
// most recently used, or nil. The lookup converts no bytes and allocates
// nothing.
func (m *parseMemo) get(kind envelopeKind, raw []byte) *identity {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.items[memoKey{kind, string(raw)}]
	if !ok {
		atomic.AddUint64(&m.misses, 1)
		return nil
	}
	atomic.AddUint64(&m.hits, 1)
	return m.touch(el)
}

// put memoises id — which the caller got from parseJob on exactly raw —
// and evicts least-recently-used spellings until the budget holds again.
// raw is copied. A spelling dearer than the lru's max is not kept, and one
// already present (two requests raced through the parse) stays as it is.
func (m *parseMemo) put(kind envelopeKind, raw []byte, id *identity) {
	cost := int64(len(raw)+len(id.key)+len(id.scenario)+len(id.format)) + memoEntryOverhead
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.items[memoKey{kind, string(raw)}]; !ok {
		m.add(memoKey{kind, string(raw)}, id, cost)
	}
}

// flightGroup collapses concurrent executions of the same config hash
// onto one run: the first caller becomes the leader and executes, every
// later caller for the same key waits for the leader's result. A waiter
// whose request context dies deregisters; when the last waiter of an
// unfinished run leaves, the run's context is cancelled so the job stops
// burning workers at the next sweep-point boundary.
type flightGroup struct {
	mu       sync.Mutex
	inflight map[string]*flightCall
}

type flightCall struct {
	done    chan struct{} // closed once res is set
	res     *jobResult
	cancel  context.CancelFunc
	waiters int
}

func newFlightGroup() *flightGroup {
	return &flightGroup{inflight: make(map[string]*flightCall)}
}

// do executes fn for key, collapsing concurrent callers onto one run.
// base is the lifetime context the run is bound to (the server's, so
// draining can abort everything); reqCtx is this caller's request
// context. Returns the run's result, whether this caller joined an
// already-in-flight run (shared), and reqCtx.Err() if the caller gave up
// before the run finished. The run itself always finishes (fn observes
// cancellation through its own context and returns); its entry leaves
// the map when it does, so a cancelled or failed run is retried by the
// next request rather than memoized.
func (f *flightGroup) do(reqCtx, base context.Context, key string,
	fn func(ctx context.Context) *jobResult) (res *jobResult, shared bool, err error) {
	f.mu.Lock()
	call, shared := f.inflight[key]
	if !shared {
		call = f.leadLocked(base, key, fn)
	}
	call.waiters++
	f.mu.Unlock()

	select {
	case <-call.done:
		return call.res, shared, nil
	case <-reqCtx.Done():
		f.mu.Lock()
		call.waiters--
		if call.waiters == 0 && call.res == nil {
			call.cancel()
		}
		f.mu.Unlock()
		return nil, shared, reqCtx.Err()
	}
}

// leadLocked installs a new flight leader for key and spawns its
// execution goroutine. Caller holds f.mu.
func (f *flightGroup) leadLocked(base context.Context, key string,
	fn func(ctx context.Context) *jobResult) *flightCall {
	runCtx, cancel := context.WithCancel(base)
	call := &flightCall{done: make(chan struct{}), cancel: cancel}
	f.inflight[key] = call
	go func() {
		r := fn(runCtx)
		f.mu.Lock()
		call.res = r
		delete(f.inflight, key)
		f.mu.Unlock()
		close(call.done)
		cancel()
	}()
	return call
}

// start launches an execution for key without waiting on it — the async
// submit path. The run holds one permanent waiter slot so synchronous
// waiters joining and abandoning the same key can never cancel an
// async-submitted run; the slot dies with the call when fn returns.
// Returns false (and starts nothing) when key is already in flight.
func (f *flightGroup) start(base context.Context, key string,
	fn func(ctx context.Context) *jobResult) (started bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.inflight[key]; ok {
		return false
	}
	call := f.leadLocked(base, key, fn)
	call.waiters++
	return true
}
