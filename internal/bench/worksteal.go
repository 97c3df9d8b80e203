package bench

import (
	"context"
	"fmt"

	"repro/internal/armci"
	"repro/internal/ga"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// WorkStealSpec parameterizes the worksteal pattern: a pool of unequal
// tasks handed out by fetch-and-add on a rank-0 counter (the NWChem
// load-balance idiom of §III.D). Its canned spec is
// examples/worksteal.json.
type WorkStealSpec struct {
	Procs   []int
	PerNode int
	Tasks   int
	Modes   []bool
}

// workStealCost is the deliberately skewed task-duration profile: a few
// heavy tasks among many light ones, the classic reason static
// partitioning loses to work sharing.
func workStealCost(t int) sim.Time {
	if t%17 == 0 {
		return 900 * sim.Microsecond
	}
	return sim.Time(50+(t*37)%200) * sim.Microsecond
}

// wsResult is one (procs, mode) cell, folded host-side from per-rank
// slots after the world joins.
type wsResult struct {
	wallUS     float64
	minT, maxT int
	meanWaitUS float64
}

// WorkStealGrid runs len(Procs) x len(Modes) independent simulations.
// The closure is lane-clean: per-rank done/wait/elapsed slots, the
// wall-clock maximum and balance folded after the run.
func WorkStealGrid(ctx context.Context, eng *sweep.Engine, sp WorkStealSpec) *Grid {
	g := &Grid{Title: fmt.Sprintf("worksteal: %d skewed tasks via rank-0 counter", sp.Tasks),
		Header: []string{"procs"}}
	for _, async := range sp.Modes {
		m := ModeName(async)
		g.Header = append(g.Header, m+"_wall_us", m+"_min_tasks", m+"_max_tasks", m+"_wait_us")
	}
	nm := len(sp.Modes)
	cells := sweep.MapCtx(eng, ctx, len(sp.Procs)*nm, func(c *sweep.Ctx, i int) wsResult {
		procs, async := sp.Procs[i/nm], sp.Modes[i%nm]
		cfg := c.Cfg(armci.Config{Procs: procs, ProcsPerNode: sp.PerNode,
			AsyncThread: async})
		done := make([]int, procs)
		wait := make([]sim.Time, procs)
		elapsed := make([]sim.Time, procs)
		armci.MustRun(cfg, func(th *sim.Thread, rt *armci.Runtime) {
			counter := ga.NewCounter(th, rt)
			start := th.Now()
			for {
				t0 := th.Now()
				t := counter.Next(th)
				wait[rt.Rank] += th.Now() - t0
				if t >= int64(sp.Tasks) {
					break
				}
				done[rt.Rank]++
				th.Sleep(workStealCost(int(t))) // compute: no progress in D mode
			}
			rt.Barrier(th)
			elapsed[rt.Rank] = th.Now() - start
		})
		r := wsResult{minT: done[0], maxT: done[0]}
		var wall, totalWait sim.Time
		for rank := 0; rank < procs; rank++ {
			if done[rank] < r.minT {
				r.minT = done[rank]
			}
			if done[rank] > r.maxT {
				r.maxT = done[rank]
			}
			totalWait += wait[rank]
			if elapsed[rank] > wall {
				wall = elapsed[rank]
			}
		}
		r.wallUS = sim.ToMicros(wall)
		r.meanWaitUS = sim.ToMicros(totalWait) /
			float64(procs*((sp.Tasks+procs-1)/procs+1))
		return r
	})
	for pi, p := range sp.Procs {
		row := []string{fmt.Sprint(p)}
		for mi := 0; mi < nm; mi++ {
			cell := cells[pi*nm+mi]
			row = append(row, fmt.Sprintf("%.1f", cell.wallUS),
				fmt.Sprint(cell.minT), fmt.Sprint(cell.maxT),
				fmt.Sprintf("%.2f", cell.meanWaitUS))
		}
		g.Add(row...)
	}
	g.Note("the async thread keeps the counter responsive while every core computes")
	return g
}
