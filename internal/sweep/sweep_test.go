package sweep

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/armci"
	"repro/internal/obs"
	"repro/internal/sim"
)

func TestMapSubmissionOrder(t *testing.T) {
	e := NewSharded(4, 0, nil)
	got := Map(e, 37, func(c *Ctx, i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("slot %d holds %d, want %d", i, v, i*i)
		}
	}
	if e.Workers() != 4 {
		t.Fatalf("workers = %d", e.Workers())
	}
}

// sweepTask is a real (tiny) simulation per index, recording into the
// run's child registry.
func sweepTask(c *Ctx, i int) sim.Time {
	cfg := c.Cfg(armci.Config{Procs: 2 + i%3, ProcsPerNode: 2, AsyncThread: i%2 == 0, Seed: uint64(i)})
	w := armci.MustRun(cfg, func(th *sim.Thread, rt *armci.Runtime) {
		a := rt.Malloc(th, 256)
		if rt.Rank == 0 {
			local := rt.LocalAlloc(th, 256)
			rt.Put(th, local, a.At(1), 64)
			rt.Get(th, a.At(1), local, 64)
			rt.FetchAdd(th, a.At(1), 1)
		}
		rt.Barrier(th)
	})
	return w.K.Now()
}

func registryDump(t *testing.T, r *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestMapWorkerCountInvariance is the engine's core promise: the merged
// parent registry and the result slice are byte-identical at every
// worker count.
func TestMapWorkerCountInvariance(t *testing.T) {
	const n = 12
	run := func(workers int) (string, string) {
		parent := obs.New(obs.WithTrackCap(64))
		vals := Map(NewSharded(workers, 0, parent), n, sweepTask)
		return fmt.Sprint(vals), registryDump(t, parent)
	}
	vals1, dump1 := run(1)
	for _, workers := range []int{2, 4, 8} {
		vals, dump := run(workers)
		if vals != vals1 {
			t.Fatalf("results differ at workers=%d:\n%s\nvs serial\n%s", workers, vals, vals1)
		}
		if dump != dump1 {
			t.Fatalf("merged registry differs at workers=%d", workers)
		}
	}
}

// TestMapPanicSurfacesOnCaller: a task that panics must not die on a
// sweep worker's goroutine, where no caller can recover it. On one worker
// and on three the sweep fails the same way: the caller recovers the
// task's own panic value, every index below the failed one was delivered
// and nothing at or past it, and no worker goroutine is left behind.
func TestMapPanicSurfacesOnCaller(t *testing.T) {
	boom := fmt.Errorf("task 1 fell over")
	started := make(chan struct{})
	for _, workers := range []int{1, 3} {
		base := runtime.NumGoroutine()
		parent := obs.New()
		em := &recordingEmitter{parent: parent}
		var got any
		func() {
			defer func() { got = recover() }()
			MapCtx(NewSharded(workers, 0, parent), WithEmitter(context.Background(), em), 8,
				func(c *Ctx, i int) int {
					c.Reg.Counter("test/ran").Add(1)
					switch {
					case i == 1:
						if workers > 1 {
							<-started // fail while a later index is mid-task
						}
						panic(boom)
					case i == 2 && workers > 1:
						started <- struct{}{}
					}
					return i
				})
		}()
		if got != boom {
			t.Fatalf("workers=%d: caller recovered %v, want the task's own value %v", workers, got, boom)
		}
		if fmt.Sprint(em.order) != "[0]" {
			t.Errorf("workers=%d: delivered %v, want only index 0", workers, em.order)
		}
		if n := parent.Counter("test/ran").Value(); n != 1 {
			t.Errorf("workers=%d: %d children merged, want 1", workers, n)
		}
		for i := 0; runtime.NumGoroutine() > base && i < 200; i++ {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("workers=%d: %d goroutines after the failed sweep, %d before", workers, n, base)
		}
	}
}

// TestMapCtxCancellation: once the context is cancelled no further task
// starts, tasks that did run keep their results, and the children of the
// completed tasks still merge into the parent.
func TestMapCtxCancellation(t *testing.T) {
	parent := obs.New(obs.WithTrackCap(64))
	e := NewSharded(1, 0, parent) // serial: deterministic cut point
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	out := MapCtx(e, ctx, 10, func(c *Ctx, i int) int {
		ran++
		c.Reg.Counter("test/ran").Add(1)
		if i == 2 {
			cancel()
		}
		return i + 1
	})
	if ran != 3 {
		t.Fatalf("ran %d tasks after cancel at i=2, want 3", ran)
	}
	for i, v := range out {
		want := 0
		if i <= 2 {
			want = i + 1
		}
		if v != want {
			t.Fatalf("slot %d = %d, want %d", i, v, want)
		}
	}
	if got := parent.Counter("test/ran").Value(); got != 3 {
		t.Fatalf("merged counter = %d, want 3 (completed tasks only)", got)
	}
	if ctx.Err() == nil {
		t.Fatal("ctx should report cancellation")
	}
}

// TestMapCtxCancelledBeforeStart: a dead context runs nothing, at any
// worker count.
func TestMapCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran int64
		MapCtx(NewSharded(workers, 0, nil), ctx, 8, func(c *Ctx, i int) int {
			atomic.AddInt64(&ran, 1)
			return i
		})
		if n := atomic.LoadInt64(&ran); n != 0 {
			t.Fatalf("workers=%d: %d tasks ran under a cancelled context", workers, n)
		}
	}
}

// recordingEmitter captures the delivery order and a dump of the parent
// registry at each delivery, to pin the ordered-incremental contract.
type recordingEmitter struct {
	parent *obs.Registry
	order  []int
	ns     []int
	dumps  []string
	childs []bool // child registry non-nil?
}

func (em *recordingEmitter) PointDone(i, n int, reg *obs.Registry) {
	em.order = append(em.order, i)
	em.ns = append(em.ns, n)
	em.childs = append(em.childs, reg != nil)
	var buf bytes.Buffer
	em.parent.WritePrometheus(&buf)
	em.dumps = append(em.dumps, buf.String())
}

// TestMapEmitterOrderedDelivery: PointDone fires exactly once per point,
// in submission-index order, after point i's child merged — and the
// whole emission sequence (including the parent snapshots taken inside
// the callback) is identical at every worker count.
func TestMapEmitterOrderedDelivery(t *testing.T) {
	const n = 11
	run := func(workers int) *recordingEmitter {
		parent := obs.New(obs.WithTrackCap(64))
		em := &recordingEmitter{parent: parent}
		ctx := WithEmitter(context.Background(), em)
		MapCtx(NewSharded(workers, 0, parent), ctx, n, sweepTask)
		return em
	}
	ref := run(1)
	if len(ref.order) != n {
		t.Fatalf("serial run delivered %d points, want %d", len(ref.order), n)
	}
	for i, got := range ref.order {
		if got != i {
			t.Fatalf("delivery %d was point %d, want %d", i, got, i)
		}
		if ref.ns[i] != n {
			t.Fatalf("delivery %d reported n=%d, want %d", i, ref.ns[i], n)
		}
		if !ref.childs[i] {
			t.Fatalf("delivery %d had a nil child despite a parent registry", i)
		}
	}
	for _, workers := range []int{2, 4, 8} {
		em := run(workers)
		if fmt.Sprint(em.order) != fmt.Sprint(ref.order) {
			t.Fatalf("workers=%d delivery order %v != serial %v", workers, em.order, ref.order)
		}
		for i := range ref.dumps {
			if em.dumps[i] != ref.dumps[i] {
				t.Fatalf("workers=%d: parent snapshot at delivery %d differs from serial", workers, i)
			}
		}
	}
}

// barrierMap is the pre-refactor reference implementation: run every
// task, then merge all children behind a barrier in index order.
func barrierMap(workers, n int, parent *obs.Registry, fn func(c *Ctx, i int) sim.Time) []sim.Time {
	out := make([]sim.Time, n)
	regs := make([]*obs.Registry, n)
	next := int64(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &Ctx{}
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				c.Reg = parent.NewChild()
				regs[i] = c.Reg
				out[i] = fn(c, i)
			}
		}()
	}
	wg.Wait()
	for _, reg := range regs {
		parent.Merge(reg)
	}
	return out
}

// TestMapOrderedEmissionMatchesBarrier is the refactor's byte-identity
// proof: the incremental-emission engine must leave the parent registry
// (metrics and trace exports) exactly as the old barrier-merge
// implementation did, at every worker count.
func TestMapOrderedEmissionMatchesBarrier(t *testing.T) {
	const n = 10
	refParent := obs.New(obs.WithTrackCap(64))
	refVals := barrierMap(1, n, refParent, sweepTask)
	refDump := registryDump(t, refParent)

	for _, workers := range []int{1, 2, 4} {
		bp := obs.New(obs.WithTrackCap(64))
		bv := barrierMap(workers, n, bp, sweepTask)
		if fmt.Sprint(bv) != fmt.Sprint(refVals) || registryDump(t, bp) != refDump {
			t.Fatalf("reference barrier not worker-invariant at %d workers", workers)
		}

		ip := obs.New(obs.WithTrackCap(64))
		iv := Map(NewSharded(workers, 0, ip), n, sweepTask)
		if fmt.Sprint(iv) != fmt.Sprint(refVals) {
			t.Fatalf("incremental results differ from barrier at workers=%d", workers)
		}
		if got := registryDump(t, ip); got != refDump {
			t.Fatalf("incremental merged registry differs from barrier at workers=%d", workers)
		}
	}
}

// TestMapRegistryOverride: WithRegistry redirects a sweep's children to
// a per-run registry, leaving the shared engine's parent untouched.
func TestMapRegistryOverride(t *testing.T) {
	engineParent := obs.New(obs.WithTrackCap(64))
	runReg := obs.New(obs.WithTrackCap(64))
	e := NewSharded(2, 0, engineParent)
	ctx := WithRegistry(context.Background(), runReg)
	MapCtx(e, ctx, 4, func(c *Ctx, i int) int {
		c.Reg.Counter("test/points").Add(1)
		return i
	})
	if got := runReg.Counter("test/points").Value(); got != 4 {
		t.Fatalf("override registry counter = %d, want 4", got)
	}
	if got := engineParent.Counter("test/points").Value(); got != 0 {
		t.Fatalf("engine parent saw %d points despite the override", got)
	}
}

// TestMapEmitterCancellation: emission respects cancellation the same
// way results do — only points that ran are delivered, in index order.
func TestMapEmitterCancellation(t *testing.T) {
	parent := obs.New(obs.WithTrackCap(64))
	em := &recordingEmitter{parent: parent}
	ctx, cancel := context.WithCancel(WithEmitter(context.Background(), em))
	MapCtx(NewSharded(1, 0, parent), ctx, 10, func(c *Ctx, i int) int {
		if i == 2 {
			cancel()
		}
		return i
	})
	if fmt.Sprint(em.order) != "[0 1 2]" {
		t.Fatalf("cancelled sweep delivered %v, want [0 1 2]", em.order)
	}
}

func TestMapEmptyAndNilParent(t *testing.T) {
	e := NewSharded(0, 0, nil) // GOMAXPROCS default
	if got := Map(e, 0, func(c *Ctx, i int) int { return 1 }); len(got) != 0 {
		t.Fatal("n=0 should yield an empty slice")
	}
	// nil parent: child registries are nil, Cfg passes nil Obs through.
	Map(e, 3, func(c *Ctx, i int) sim.Time {
		if c.Reg != nil {
			t.Error("child registry should be nil without a parent")
		}
		return sweepTask(c, i)
	})
}
