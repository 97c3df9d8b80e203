package armci

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The recovery tests run two ranks on two nodes under small scripted fault
// plans. Bring-up (client, two contexts, a Malloc) takes about 9 ms of
// virtual time; every plan's windows are placed relative to ftEpoch, and
// rank 0 parks until then, so a window catches exactly the message the
// row is about.
const (
	ftEpoch = 20 * sim.Millisecond
	forGood = sim.Second // a window that outlasts the run
	ftBytes = 256
)

func ftCfg(plan *fault.Plan) Config {
	return Config{Procs: 2, ProcsPerNode: 1, AsyncThread: true, Fault: plan}
}

// ftLinks returns the one link each direction of the two-node torus uses.
func ftLinks() (to1, to0 int) {
	tor := topology.ForProcs(2, 1)
	return tor.Route(0, 1)[0].ID(), tor.Route(1, 0)[0].ID()
}

// shortBudget is the default policy with two attempts, so an exhaustion
// row ends in a quarter of a millisecond.
func shortBudget() *retryPolicy {
	p := defaultRetryPolicy()
	p.MaxAttempts = 2
	return p
}

func sleepUntil(th *sim.Thread, at sim.Time) {
	d := at - th.Now()
	if d < 0 {
		panic("recover_test: the epoch passed during set-up")
	}
	th.Sleep(d)
}

// rmwTableLen reads the length of the PAMI client's table of
// read-modify-writes in flight, which has no exported view.
func rmwTableLen(rt *Runtime) int {
	return reflect.ValueOf(rt.C).Elem().FieldByName("rmwPend").Len()
}

func wantStats(t *testing.T, rt *Runtime, want map[string]int64) {
	t.Helper()
	for name, v := range want {
		if got := rt.Stats.Get(name); got != v {
			t.Errorf("rank %d %s = %d, want %d", rt.Rank, name, got, v)
		}
	}
}

// ftOp is one blocking contiguous transfer of ftBytes between rank 0's
// local buffer and rank 1's block, in the direction the row names.
type ftOp struct {
	name       string
	rdma, am   string // the Stats counter of each protocol
	dataTo1    bool   // the payload travels 0 -> 1 (a put), else 1 -> 0
	run        func(th *sim.Thread, rt *Runtime, local mem.Addr, remote GlobalPtr) error
	wantRemote byte // pattern seed the transfer must leave at its destination
}

var (
	ftPut = ftOp{name: "put", rdma: "put.rdma", am: "put.am", dataTo1: true, wantRemote: 5,
		run: func(th *sim.Thread, rt *Runtime, local mem.Addr, remote GlobalPtr) error {
			return rt.PutErr(th, local, remote, ftBytes)
		}}
	ftGet = ftOp{name: "get", rdma: "get.rdma", am: "get.fallback", wantRemote: 9,
		run: func(th *sim.Thread, rt *Runtime, local mem.Addr, remote GlobalPtr) error {
			return rt.GetErr(th, remote, local, ftBytes)
		}}
	ftNbGet = ftOp{name: "nbget", rdma: "get.rdma", am: "get.fallback", wantRemote: 9,
		run: func(th *sim.Thread, rt *Runtime, local mem.Addr, remote GlobalPtr) error {
			rt.NbGet(th, remote, local, ftBytes).Wait(th)
			return nil
		}}
)

// ftWorld runs body on rank 0 at ftEpoch. Rank 0's local buffer holds
// pattern 5 and rank 1's block pattern 9 when it starts.
func ftWorld(t *testing.T, cfg Config, body func(th *sim.Thread, rt *Runtime, local mem.Addr, remote GlobalPtr)) (*World, error) {
	t.Helper()
	return Run(cfg, func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, ftBytes)
		if cfg.RegionCacheCap == 1 {
			rt.Malloc(th, ftBytes) // its seeded entry evicts a's: the transfer will miss
		}
		if rt.Rank == 1 {
			rt.Space().CopyIn(a.At(1).Addr, pattern(ftBytes, 9))
		}
		rt.Barrier(th)
		if rt.Rank != 0 {
			return
		}
		local := rt.LocalAlloc(th, ftBytes)
		rt.Space().CopyIn(local, pattern(ftBytes, 5))
		sleepUntil(th, ftEpoch)
		body(th, rt, local, a.At(1))
	})
}

// checkLanded fails unless the transfer's destination holds its pattern
// right now — for a put that is the target's memory at the instant PutErr
// returned, which is what end-to-end means.
func checkLanded(t *testing.T, rt *Runtime, op ftOp, local mem.Addr, remote GlobalPtr) {
	t.Helper()
	got := rt.Space().Bytes(local, ftBytes)
	if op.dataTo1 {
		got = rt.W.M.Space(1).Bytes(remote.Addr, ftBytes)
	}
	if !bytes.Equal(got, pattern(ftBytes, op.wantRemote)) {
		t.Errorf("%s: destination does not hold the transferred bytes on return", op.name)
	}
}

// TestRdmaLossDegradesToAM: the first data message of an RDMA transfer is
// dropped. The attempt times out, the target turns suspect and its region
// descriptors go, the retry takes the AM protocol and delivers; once the
// suspect window is over the next transfer is RDMA again, after one
// region-cache miss re-resolves the purged descriptor.
func TestRdmaLossDegradesToAM(t *testing.T) {
	to1, to0 := ftLinks()
	for _, op := range []ftOp{ftPut, ftGet} {
		t.Run(op.name, func(t *testing.T) {
			link := to0
			if op.dataTo1 {
				link = to1
			}
			plan := fault.NewPlan(1).LinkDown(link, ftEpoch, 30*sim.Microsecond)
			w, err := ftWorld(t, ftCfg(plan), func(th *sim.Thread, rt *Runtime, local mem.Addr, remote GlobalPtr) {
				if err := op.run(th, rt, local, remote); err != nil {
					t.Fatalf("first %s: %v", op.name, err)
				}
				checkLanded(t, rt, op, local, remote)
				wantStats(t, rt, map[string]int64{
					op.rdma: 1, op.am: 1, "timeout": 1, "retry": 1, "recovered": 1, "rdma.suspect": 1,
				})
				if n := rt.regions.total; n != 0 {
					t.Errorf("suspect rank still has %d cached region descriptors", n)
				}
				if !rt.rdmaSuspect(rt.peers.find(1)) {
					t.Error("rank 1 is not suspect right after its RDMA attempt timed out")
				}
				misses := rt.Stats.Get("regioncache.miss")

				sleepUntil(th, ftEpoch+rt.retry.SuspectWindow+sim.Millisecond)
				if err := op.run(th, rt, local, remote); err != nil {
					t.Fatalf("second %s: %v", op.name, err)
				}
				wantStats(t, rt, map[string]int64{
					op.rdma: 2, op.am: 1, "timeout": 1, "rdma.suspect": 1,
					"regioncache.miss": misses + 1,
				})
				if pendingRequests(rt) != 0 {
					t.Errorf("%d requests left pending", pendingRequests(rt))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if w.Faults.Dropped != 1 {
				t.Errorf("plan dropped %d messages, want exactly the first data message", w.Faults.Dropped)
			}
		})
	}
}

// TestLostRegionQueryFallsBackToAM: the region cache holds one entry, so
// the transfer misses, and the target node is down for both metadata
// queries. The operation must not wait for metadata for ever: it reports
// the region unresolved and completes by the AM protocol. The nbget row
// is the same plan through the non-blocking entry point, which shares the
// bounded query.
func TestLostRegionQueryFallsBackToAM(t *testing.T) {
	for _, op := range []ftOp{ftPut, ftGet, ftNbGet} {
		t.Run(op.name, func(t *testing.T) {
			cfg := ftCfg(fault.NewPlan(1).NodeDown(1, ftEpoch, 100*sim.Microsecond))
			cfg.RegionCacheCap = 1
			_, err := ftWorld(t, cfg, func(th *sim.Thread, rt *Runtime, local mem.Addr, remote GlobalPtr) {
				if err := op.run(th, rt, local, remote); err != nil {
					t.Fatal(err)
				}
				checkLanded(t, rt, op, local, remote)
				wantStats(t, rt, map[string]int64{
					"regioncache.miss": 1, "regioncache.unresolved": 1, "timeout": 2, "retry": 1,
					op.rdma: 0, op.am: 1, "rdma.suspect": 0,
				})
				if pendingRequests(rt) != 0 {
					t.Errorf("%d requests left pending", pendingRequests(rt))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFenceUnderFaults: a fence's flush round trip is retried like any
// operation, and the two things a fence cannot recover from — a flush
// that exhausts its budget, a non-blocking write whose ack is lost for
// good — end the run with the documented panic instead of hanging it.
func TestFenceUnderFaults(t *testing.T) {
	_, to0 := ftLinks()
	for _, tc := range []struct {
		name      string
		plan      *fault.Plan
		acc       bool   // the outstanding write is an NbAcc issued at the epoch, else an NbPut before it
		wantPanic string // substring of the thread's panic; empty: the fence returns
	}{
		{name: "flush dropped once",
			plan: fault.NewPlan(1).NodeDown(1, ftEpoch, 30*sim.Microsecond)},
		{name: "flush exhausted", wantPanic: "exhausted retries",
			plan: fault.NewPlan(1).NodeDown(1, ftEpoch, forGood)},
		{name: "acc ack lost for good", acc: true, wantPanic: "non-blocking writes are not fault-hardened",
			plan: fault.NewPlan(1).LinkDown(to0, ftEpoch, forGood)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ftCfg(tc.plan)
			cfg.retry = shortBudget()
			fenced := false
			_, err := Run(cfg, func(th *sim.Thread, rt *Runtime) {
				a := rt.Malloc(th, ftBytes)
				if rt.Rank != 0 {
					return
				}
				local := rt.LocalAlloc(th, ftBytes)
				if !tc.acc {
					rt.NbPut(th, local, a.At(1), ftBytes).Wait(th)
				}
				sleepUntil(th, ftEpoch)
				if tc.acc {
					rt.NbAcc(th, local, a.At(1), ftBytes, 1)
				}
				rt.Fence(th, 1)
				fenced = true
				wantStats(t, rt, map[string]int64{"fence": 1, "fence.flush": 1, "retry": 1, "timeout": 1})
				if n := dirtyTargets(t, rt); n != 0 {
					t.Errorf("fence left %d dirty targets", n)
				}
			})
			if tc.wantPanic == "" {
				if err != nil || !fenced {
					t.Fatalf("fence did not return: %v", err)
				}
				return
			}
			var tp *sim.ThreadPanic
			if !errors.As(err, &tp) || !strings.Contains(tp.Error(), tc.wantPanic) {
				t.Fatalf("run ended with %v, want a thread panic naming %q", err, tc.wantPanic)
			}
			if fenced {
				t.Error("fence returned")
			}
		})
	}
}

// ftBlocking is every blocking operation that has a retry budget.
var ftBlocking = []struct {
	op  string
	run func(th *sim.Thread, rt *Runtime, local mem.Addr, remote GlobalPtr) error
}{
	{"put", ftPut.run},
	{"get", ftGet.run},
	{"acc", func(th *sim.Thread, rt *Runtime, local mem.Addr, remote GlobalPtr) error {
		return rt.AccErr(th, local, remote, ftBytes, 1)
	}},
	{"rmw", func(th *sim.Thread, rt *Runtime, _ mem.Addr, remote GlobalPtr) error {
		_, err := rt.FetchAddErr(th, remote, 1)
		return err
	}},
}

// TestRetryBudgetExhausted: with two attempts allowed, an operation whose
// replies never come (target node down for the whole run) or come a
// millisecond late (every message delayed) returns *OpError, counts one
// exhaustion, and leaves no initiator-side state for a reply to find: the
// late replies of the second plan arrive while rank 0 sleeps and are
// ignored. What did reach the target was applied once.
func TestRetryBudgetExhausted(t *testing.T) {
	for _, plan := range []struct {
		name string
		p    func() *fault.Plan
		late bool
	}{
		{"node down", func() *fault.Plan { return fault.NewPlan(1).NodeDown(1, 0, forGood) }, false},
		{"late replies", func() *fault.Plan {
			return fault.NewPlan(1).Delay(fault.Any, fault.Any, 0, forGood, 1, sim.Millisecond)
		}, true},
	} {
		for _, tc := range ftBlocking {
			t.Run(plan.name+"/"+tc.op, func(t *testing.T) {
				cfg := ftCfg(plan.p())
				cfg.retry = shortBudget()
				_, err := ftWorld(t, cfg, func(th *sim.Thread, rt *Runtime, local mem.Addr, remote GlobalPtr) {
					rt.W.M.Space(1).SetInt64(remote.Addr, 0)
					rt.Space().SetFloat64(local, 1)
					t0 := th.Now()
					err := tc.run(th, rt, local, remote)
					var oe *OpError
					if !errors.As(err, &oe) {
						t.Fatalf("%s returned %v, want *OpError", tc.op, err)
					}
					if oe.Op != tc.op || oe.Target != 1 || oe.Attempts != 2 || oe.Elapsed != th.Now()-t0 {
						t.Errorf("error %+v, want {Op:%s Target:1 Attempts:2 Elapsed:%d}", *oe, tc.op, th.Now()-t0)
					}
					wantStats(t, rt, map[string]int64{"retry.exhausted": 1, "timeout": 2, "retry": 1, "recovered": 0})
					settled := func(when string) {
						if pendingRequests(rt) != 0 || rmwTableLen(rt) != 0 {
							t.Errorf("%s: %d pending requests, %d pending rmws, want none",
								when, pendingRequests(rt), rmwTableLen(rt))
						}
					}
					settled("on return")
					if !plan.late {
						return
					}
					th.Sleep(5 * sim.Millisecond) // every delayed request and reply arrives
					settled("after the late replies")
					switch tc.op {
					case "acc":
						if got := rt.W.M.Space(1).GetFloat64(remote.Addr); got != 1 {
							t.Errorf("accumulate sent twice left %v, want it applied once", got)
						}
					case "rmw":
						if got := rt.W.M.Space(1).GetInt64(remote.Addr); got != 1 {
							t.Errorf("fetch-and-add sent twice left %d, want it applied once", got)
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestExactlyOnceUnderDuplication: every message is delivered twice, and
// the replies to the first accumulate and the first fetch-and-add are
// dropped, so each is re-sent as well. The retry repeats the operation's
// identity, the target absorbs every extra copy, and the sum and the
// counter come out exact.
func TestExactlyOnceUnderDuplication(t *testing.T) {
	_, to0 := ftLinks()
	const rounds = 3
	plan := fault.NewPlan(1).
		Duplicate(fault.Any, fault.Any, 0, forGood, 1).
		LinkDown(to0, ftEpoch, 30*sim.Microsecond).
		LinkDown(to0, ftEpoch+sim.Millisecond, 30*sim.Microsecond)
	w, err := ftWorld(t, ftCfg(plan), func(th *sim.Thread, rt *Runtime, local mem.Addr, remote GlobalPtr) {
		tgt := rt.W.M.Space(1)
		tgt.SetFloat64(remote.Addr, 0)
		tgt.SetInt64(remote.Addr+8, 0)
		rt.Space().SetFloat64(local, 1)
		for i := 0; i < rounds; i++ {
			if err := rt.AccErr(th, local, remote, 8, 1); err != nil {
				t.Fatal(err)
			}
		}
		sleepUntil(th, ftEpoch+sim.Millisecond)
		for i := int64(0); i < rounds; i++ {
			prev, err := rt.FetchAddErr(th, remote.Add(8), 1)
			if err != nil || prev != i {
				t.Fatalf("fetch-and-add %d returned %d, %v", i, prev, err)
			}
		}
		if sum, n := tgt.GetFloat64(remote.Addr), tgt.GetInt64(remote.Addr+8); sum != rounds || n != rounds {
			t.Errorf("sum %v counter %d after %d of each, want both exact", sum, n, rounds)
		}
		wantStats(t, rt, map[string]int64{"timeout": 2, "retry": 2, "recovered": 2, "acc": rounds + 1, "rmw": rounds})
	})
	if err != nil {
		t.Fatal(err)
	}
	if dups := w.Runtimes[1].Stats.Get("dup.am"); dups < rounds {
		t.Errorf("target absorbed %d duplicate accumulates, want at least %d", dups, rounds)
	}
}

// TestDelayedOriginalEndsTheBackoff: the request is not lost, only slower
// than the attempt's deadline. Its reply lands during the back-off sleep —
// retired by the progress thread, which with one context shares the
// sleeping main thread's — and the operation is over without a second send.
func TestDelayedOriginalEndsTheBackoff(t *testing.T) {
	cfg := ftCfg(fault.NewPlan(1).Delay(fault.Any, fault.Any, ftEpoch, 10*sim.Microsecond, 1, 70*sim.Microsecond))
	cfg.Contexts = 1
	_, err := ftWorld(t, cfg, func(th *sim.Thread, rt *Runtime, _ mem.Addr, remote GlobalPtr) {
		rt.W.M.Space(1).SetInt64(remote.Addr, 41)
		if prev, err := rt.FetchAddErr(th, remote, 1); err != nil || prev != 41 {
			t.Fatalf("fetch-and-add returned %d, %v", prev, err)
		}
		wantStats(t, rt, map[string]int64{"timeout": 1, "recovered": 1, "retry": 0, "rmw": 1})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBlockingOpAllocBudget pins the heap objects one blocking operation
// costs the host in steady state: two ranks on adjacent nodes, 64 bytes,
// asynchronous progress, endpoints and region descriptors cached. The
// counts repeat exactly, so there is no headroom: a closure that starts
// to escape on the way from the API to the wait shows up here as +1,
// where the benchmark's allocs_per_op bound would take 3 % to notice.
// Every record is recycled on a healthy run, so each costs nothing: the
// completion of a Get, Put or Acc lives in an operation slot the call
// borrows and returns, its pending request in ARMCI's recycled table, its
// messages, payloads and flights in pami's pools, and a FetchAdd's
// completion and prior value in PAMI's recycled rmw slot. Under the race
// detector slots are retired, not reused, so the test skips.
func TestBlockingOpAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("operation slots are retired, not reused, under the race detector")
	}
	const n = 64
	_, err := Run(Config{Procs: 2, ProcsPerNode: 1, AsyncThread: true}, func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, n)
		if rt.Rank != 0 {
			return
		}
		local := rt.LocalAlloc(th, n)
		for _, tc := range []struct {
			name string
			want float64
			op   func()
		}{
			{"Get", 0, func() { rt.Get(th, a.At(1), local, n) }},
			{"Put", 0, func() { rt.Put(th, local, a.At(1), n) }},
			{"Acc", 0, func() { rt.Acc(th, local, a.At(1), n, 1) }},
			{"FetchAdd", 0, func() { rt.FetchAdd(th, a.At(1), 1) }},
		} {
			tc.op() // warm-up: endpoints, route cache, pend table, slot free list, work queues
			got := testing.AllocsPerRun(100, tc.op)
			t.Logf("%s: %v heap objects per blocking call", tc.name, got)
			if got != tc.want {
				t.Errorf("%s: %v heap objects per blocking call, want %v", tc.name, got, tc.want)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
