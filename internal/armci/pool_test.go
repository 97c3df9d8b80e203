package armci

import (
	"testing"

	"repro/internal/sim"
)

// poolWorkload is a small multi-rank job touching the region cache and
// every queue path.
func poolWorkload(t *testing.T, cfg Config) (events uint64, final sim.Time) {
	t.Helper()
	w, err := Run(cfg, func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 1024)
		local := rt.LocalAlloc(th, 1024)
		peer := (rt.Rank + 1) % rt.Procs()
		for i := 0; i < 3; i++ {
			rt.Put(th, local, a.At(peer), 128)
			rt.Get(th, a.At(peer), local, 128)
			rt.FetchAdd(th, a.At(0), 1)
		}
		rt.Fence(th, peer)
		rt.Barrier(th)
	})
	if err != nil {
		t.Fatal(err)
	}
	return w.K.EventsFired(), w.K.Now()
}

func TestPoolRunsAreIdentical(t *testing.T) {
	base := Config{Procs: 8, ProcsPerNode: 4, AsyncThread: true, Seed: 11}
	e0, f0 := poolWorkload(t, base)

	pooled := base
	pooled.Pool = NewPool()
	for i := 0; i < 3; i++ {
		e, f := poolWorkload(t, pooled)
		if e != e0 || f != f0 {
			t.Fatalf("pooled run %d diverges: (%d,%d) vs (%d,%d)", i, e, f, e0, f0)
		}
	}
}

// TestPoolAcrossWorldSizes: kernel arrays warmed by a big world must serve
// a smaller one, and a bigger one after that, without changing a result.
func TestPoolAcrossWorldSizes(t *testing.T) {
	p := NewPool()
	big := Config{Procs: 8, ProcsPerNode: 4, AsyncThread: true, Pool: p}
	eBig, fBig := poolWorkload(t, Config{Procs: 8, ProcsPerNode: 4, AsyncThread: true})
	poolWorkload(t, big)
	small := big
	small.Procs = 4
	e, f := poolWorkload(t, small)
	eRef, fRef := poolWorkload(t, Config{Procs: 4, ProcsPerNode: 4, AsyncThread: true})
	if e != eRef || f != fRef {
		t.Fatalf("shrunken pooled world diverges: (%d,%d) vs (%d,%d)", e, f, eRef, fRef)
	}
	if e, f := poolWorkload(t, big); e != eBig || f != fBig {
		t.Fatalf("regrown pooled world diverges: (%d,%d) vs (%d,%d)", e, f, eBig, fBig)
	}
}

func TestPoolNilIsNoop(t *testing.T) {
	var p *Pool
	k := p.kernel()
	if k == nil {
		t.Fatal("nil pool must still build kernels")
	}
	p.putKernel(k) // no-op, no panic
}
