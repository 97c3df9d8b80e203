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

// TestShelfReuseIsInvisible: a world is built from what the worlds before
// it left on its engine's shelf — runtimes, clients, contexts, spaces,
// lanes and threads, reset in place with the room they grew, flights,
// payload buffers, rank heaps and, at the same shape, the torus with its
// routes — and nothing of theirs may show. One engine runs, back to back,
// big → small → big: a p = 256 SCF (ga get and accumulate), a fig9 hammer
// at p = 1024 (active-message rmw), a p = 64 SCF (kept slabs four to
// sixteen times too long), a world that deadlocks (which gives nothing
// back), a halo (RDMA and typed strided puts) and the p = 256 SCF again,
// with chaos hammers of seeds 42, 7 and 99 between them — duplicated,
// delayed and dropped messages on flights, payloads, slots and dedup
// windows healthy runs stocked, and theirs left for the healthy runs
// after; each result must be the bytes the same point gives on a fresh
// engine, at one lane worker and at two. Under -race every payload and
// heap handed back is poisoned and no slab is reused, so a reader that
// outlives its world shows up here as changed bytes.
//
// Then a world's memory must be gone once its task has returned, which
// gives it back to the task's shelf: its ranks' heap bytes read mem.Poison
// and its runtimes are poisoned under -race, and a value only its threads
// reached is collected while the engine lives — which fails if a reset
// leaves a thread's body, an event or a lane array holding it.
func TestShelfReuseIsInvisible(t *testing.T) {
	ctx := context.Background()
	csv := func(g *Grid) string {
		var b bytes.Buffer
		g.RenderCSV(&b)
		return b.String()
	}
	scf := func(procs int) func(eng *sweep.Engine) string {
		return func(eng *sweep.Engine) string { return csv(Fig11(ctx, eng, []int{procs}, 16, Quick.SCF)) }
	}
	chaos := func(procs int, seed uint64) func(eng *sweep.Engine) string {
		return func(eng *sweep.Engine) string { return fmt.Sprintf("%+v", ChaosRun(ctx, eng, procs, 4, 2, seed)) }
	}
	points := []struct {
		name string
		run  func(eng *sweep.Engine) string
	}{
		{"scf p=256", scf(256)},
		{"chaos p=32 seed 42", chaos(32, 42)},
		{"fig9 p=1024", func(eng *sweep.Engine) string {
			return strconv.FormatFloat(Fig9Point(ctx, eng, 1024, 16, true, true, 2), 'g', -1, 64)
		}},
		{"scf p=64", scf(64)},
		{"chaos p=64 seed 7", chaos(64, 7)},
		{"deadlock", func(eng *sweep.Engine) string {
			return sweep.Map(eng, 1, func(c *sweep.Ctx, _ int) string {
				_, err := armci.Run(c.Cfg(armci.Config{Procs: 32, ProcsPerNode: 16, AsyncThread: true}),
					func(th *sim.Thread, rt *armci.Runtime) {
						rt.Barrier(th)
						if rt.Rank == 0 {
							rt.Barrier(th) // no other rank joins
						}
					})
				return fmt.Sprint(err)
			})[0]
		}},
		{"halo", func(eng *sweep.Engine) string {
			return csv(HaloGrid(ctx, eng, HaloSpec{TilesX: 4, TilesY: 4, TileN: 16, Iters: 3, PerNode: 4,
				Modes: []bool{false, true}}))
		}},
		{"chaos p=32 seed 99", chaos(32, 99)},
		{"scf p=256 again", scf(256)},
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
		taskWorldIsGone(t, shared)
	}
}

// taskWorldIsGone runs one world on eng and fails t unless, once its task
// has returned, which gives the world back to the task's shelf, the
// world's ranks' heap bytes read mem.Poison and its runtimes are poisoned
// (race builds only: Return poisons there, and slabs are poisoned instead
// of reused), and a value its rank bodies alone reached is collected while
// eng is still alive.
func taskWorldIsGone(t *testing.T, eng *sweep.Engine) {
	t.Helper()
	var heap []byte
	var world *armci.World
	gone := make(chan struct{})
	func() {
		only := new([64]byte) // reached from the rank bodies, through their threads
		runtime.SetFinalizer(only, func(*[64]byte) { close(gone) })
		world = sweep.Map(eng, 1, func(c *sweep.Ctx, _ int) *armci.World {
			return armci.MustRun(c.Cfg(armci.Config{Procs: 32, ProcsPerNode: 16}), func(th *sim.Thread, rt *armci.Runtime) {
				a := rt.Malloc(th, 256)
				b := rt.Space().Bytes(a.At(rt.Rank).Addr, 256)
				for i := range b {
					b[i] = byte(rt.Rank)
				}
				if rt.Rank == 1 {
					heap, only[0] = b, 1
				}
			})
		})[0]
	}()
	if raceEnabled {
		for i, v := range heap {
			if v != mem.Poison {
				t.Fatalf("byte %d of a given-back world's heap reads %#x, want mem.Poison", i, v)
			}
		}
		if r := world.Runtimes[1].Rank; r != -1 {
			t.Fatalf("a given-back world's runtime reads rank %d, want the poison -1", r)
		}
	}
	world = nil
	for range 100 {
		runtime.GC()
		select {
		case <-gone:
			runtime.KeepAlive(eng)
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
	t.Fatal("a given-back world's threads are still reachable from its engine")
}
