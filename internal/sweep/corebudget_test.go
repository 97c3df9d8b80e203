package sweep

import (
	"runtime"
	"testing"

	"repro/internal/armci"
)

// TestCoreBudget pins the core-division rules on a simulated 4-core
// host: workers and shards compose (each concurrent run costs max(1,
// shards) cores), explicit worker counts are always honored, and only
// the multiplied shard budget shrinks to fit.
func TestCoreBudget(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	cases := []struct{ w, s, wantW, wantS int }{
		{0, 0, 4, 0}, // defaults: every core becomes a sweep worker
		{1, 4, 1, 4}, // fits exactly: one run on four lane workers
		{4, 4, 4, 1}, // the thrash case: workers win, shards collapse
		{2, 4, 2, 2}, // partial shrink to the quotient
		{0, 4, 1, 4}, // auto workers leave room for the shard budget
		{0, 2, 2, 2}, // balanced split
		{8, 2, 8, 1}, // worker oversubscription honored, shards give way
		{3, 2, 3, 1}, // integer shrink rounds the shard budget down
	}
	for _, c := range cases {
		w, s := CoreBudget(c.w, c.s)
		if w != c.wantW || s != c.wantS {
			t.Errorf("CoreBudget(%d, %d) = (%d, %d), want (%d, %d)",
				c.w, c.s, w, s, c.wantW, c.wantS)
		}
	}
}

// TestNewShardedForwardsShards verifies the resolved shard budget
// reaches every task's Ctx (and through Ctx.Cfg, armci.Config.Shards).
func TestNewShardedForwardsShards(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	e := NewSharded(2, 2, nil)
	if e.Workers() != 2 || e.Shards() != 2 {
		t.Fatalf("NewSharded(2, 2) resolved to (%d, %d), want (2, 2)", e.Workers(), e.Shards())
	}
	got := Map(e, 3, func(c *Ctx, i int) int { return c.Cfg(armci.Config{}).Shards })
	for i, s := range got {
		if s != 2 {
			t.Errorf("task %d saw Shards=%d, want 2", i, s)
		}
	}
}
