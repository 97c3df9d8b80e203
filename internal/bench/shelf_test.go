package bench

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/sweep"
)

// TestShelfReuseIsInvisible: a world recycles the flights and payload
// buffers the worlds before it left on its engine's shelf, and nothing of
// theirs may show. One engine runs a halo (RDMA and typed strided puts), a
// fig9 hammer (active-message rmw), a chaos hammer (which recycles
// nothing, on a shelf healthy runs stocked) and a small SCF (ga get and
// accumulate) back to back; each result must be the bytes the same point
// gives on a fresh engine, at one lane worker and at two. Under -race
// every payload handed back is poisoned, so a reader that outlives a
// recycled payload shows up here as changed bytes.
func TestShelfReuseIsInvisible(t *testing.T) {
	ctx := context.Background()
	csv := func(g *Grid) string {
		var b bytes.Buffer
		g.RenderCSV(&b)
		return b.String()
	}
	points := []struct {
		name string
		run  func(eng *sweep.Engine) string
	}{
		{"halo", func(eng *sweep.Engine) string {
			return csv(HaloGrid(ctx, eng, HaloSpec{TilesX: 4, TilesY: 4, TileN: 16, Iters: 3, PerNode: 4,
				Modes: []bool{false, true}}))
		}},
		{"fig9", func(eng *sweep.Engine) string {
			return strconv.FormatFloat(Fig9Point(ctx, eng, 64, 16, true, true, 2), 'g', -1, 64)
		}},
		{"chaos", func(eng *sweep.Engine) string {
			return fmt.Sprintf("%+v", ChaosRun(ctx, eng, 16, 4, 2, 7))
		}},
		{"scf", func(eng *sweep.Engine) string {
			return csv(Fig11(ctx, eng, []int{16}, 4, Quick.SCF))
		}},
	}
	for _, shards := range []int{1, 2} {
		shared := sweep.NewSharded(1, shards, nil)
		for _, p := range points {
			got := p.run(shared)
			if want := p.run(sweep.NewSharded(1, shards, nil)); got != want {
				t.Errorf("shards %d: %s after the points before it on one engine:\n%s\nfresh engine:\n%s",
					shards, p.name, got, want)
			}
		}
	}
}
