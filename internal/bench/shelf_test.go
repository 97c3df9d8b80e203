package bench

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/armci"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// TestShelfReuseIsInvisible: a world recycles what the worlds before it
// left on its engine's shelf — flights, payload buffers, its ranks' heaps,
// its lanes' arrays and, at the same shape, the torus with its routes —
// and nothing of theirs may show. One engine runs a fig9 hammer at
// p = 1024 (active-message rmw), a halo (RDMA and typed strided puts), a
// p = 64 chaos hammer (which recycles no flight or payload, on a shelf
// healthy runs stocked), fig9 at p = 512 (fewer lanes than the shelf
// keeps), fig9 at p = 1024 again (the kept torus) and a small SCF (ga get
// and accumulate) back to back; each result must be the bytes the same
// point gives on a fresh engine, at one lane worker and at two. Under
// -race every payload and heap handed back is poisoned, so a reader that
// outlives a recycled buffer shows up here as changed bytes.
//
// Then a finished world must have left nothing of itself on the shelf:
// after its Shelve, its ranks' heap bytes read mem.Poison under -race, and
// a value only its threads reached is collected while the engine lives —
// which fails if the lane arrays go back to the shelf uncleared.
func TestShelfReuseIsInvisible(t *testing.T) {
	ctx := context.Background()
	csv := func(g *Grid) string {
		var b bytes.Buffer
		g.RenderCSV(&b)
		return b.String()
	}
	fig9 := func(procs int) func(eng *sweep.Engine) string {
		return func(eng *sweep.Engine) string {
			return strconv.FormatFloat(Fig9Point(ctx, eng, procs, 16, true, true, 2), 'g', -1, 64)
		}
	}
	points := []struct {
		name string
		run  func(eng *sweep.Engine) string
	}{
		{"fig9 p=1024", fig9(1024)},
		{"halo", func(eng *sweep.Engine) string {
			return csv(HaloGrid(ctx, eng, HaloSpec{TilesX: 4, TilesY: 4, TileN: 16, Iters: 3, PerNode: 4,
				Modes: []bool{false, true}}))
		}},
		{"chaos p=64", func(eng *sweep.Engine) string {
			return fmt.Sprintf("%+v", ChaosRun(ctx, eng, 64, 4, 2, 7))
		}},
		{"fig9 p=512", fig9(512)},
		{"fig9 p=1024 again", fig9(1024)},
		{"scf", func(eng *sweep.Engine) string {
			return csv(Fig11(ctx, eng, []int{16}, 4, Quick.SCF))
		}},
	}
	for _, shards := range []int{0, 2} {
		shared := sweep.NewSharded(1, shards, nil)
		for _, p := range points {
			got := p.run(shared)
			if want := p.run(sweep.NewSharded(1, shards, nil)); got != want {
				t.Errorf("shards %d: %s after the points before it on one engine:\n%s\nfresh engine:\n%s",
					shards, p.name, got, want)
			}
		}
		shelvedWorldIsGone(t, shared)
	}
}

// shelvedWorldIsGone runs one world on eng and fails t unless, once it
// has been shelved, its ranks' heap bytes read mem.Poison (race builds
// only: Return poisons there) and a value its rank bodies alone reached
// is collected while eng is still alive.
func shelvedWorldIsGone(t *testing.T, eng *sweep.Engine) {
	t.Helper()
	var heap []byte
	gone := make(chan struct{})
	func() {
		only := new([64]byte) // reached from the rank bodies, through their threads
		runtime.SetFinalizer(only, func(*[64]byte) { close(gone) })
		sweep.Map(eng, 1, func(c *sweep.Ctx, _ int) int {
			armci.MustRun(c.Cfg(armci.Config{Procs: 32, ProcsPerNode: 16}), func(th *sim.Thread, rt *armci.Runtime) {
				a := rt.Malloc(th, 256)
				b := rt.Space().Bytes(a.At(rt.Rank).Addr, 256)
				for i := range b {
					b[i] = byte(rt.Rank)
				}
				if rt.Rank == 1 {
					heap, only[0] = b, 1
				}
			})
			return 0
		})
	}()
	if raceEnabled {
		for i, v := range heap {
			if v != mem.Poison {
				t.Fatalf("byte %d of a shelved world's heap reads %#x, want mem.Poison", i, v)
			}
		}
	}
	for range 100 {
		runtime.GC()
		select {
		case <-gone:
			runtime.KeepAlive(eng)
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
	t.Fatal("a shelved world's threads are still reachable from its engine")
}
