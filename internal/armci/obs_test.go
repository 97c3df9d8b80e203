package armci

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// obsRun executes a fixed two-rank workload touching every instrumented
// path (RDMA get/put, accumulate, rmw, strided) with a fresh registry and
// returns the exported trace and metrics.
func obsRun(t *testing.T) (traceOut, metricsOut []byte) {
	t.Helper()
	reg := obs.New()
	cfg := Config{Procs: 2, ProcsPerNode: 1, AsyncThread: true, Obs: reg}
	MustRun(cfg, func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 1<<16)
		if rt.Rank != 0 {
			return
		}
		local := rt.LocalAlloc(th, 1<<16)
		rt.Get(th, a.At(1), local, 4096)
		rt.Put(th, local, a.At(1), 4096)
		rt.Acc(th, local, a.At(1), 256, 1.0)
		rt.FetchAdd(th, a.At(1), 3)
		rt.PutS(th, local, []int{256}, a.At(1), []int{256}, []int{64, 4})
		rt.Fence(th, 1)
	})
	var tb, mb bytes.Buffer
	if err := reg.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&mb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), mb.Bytes()
}

func TestObsExportDeterministic(t *testing.T) {
	t1, m1 := obsRun(t)
	t2, m2 := obsRun(t)
	if !bytes.Equal(t1, t2) {
		t.Fatal("trace JSON differs across identical runs")
	}
	if !bytes.Equal(m1, m2) {
		t.Fatal("metrics dump differs across identical runs")
	}
}

func TestObsTraceJSONShape(t *testing.T) {
	tr, _ := obsRun(t)
	if !json.Valid(tr) {
		t.Fatalf("trace is not valid JSON:\n%.500s", tr)
	}
	// All three track kinds must be present: rank threads, the async
	// progress threads, and torus links.
	for _, want := range []string{`"name":"ranks"`, `"name":"progress"`, `"name":"links"`} {
		if !bytes.Contains(tr, []byte(want)) {
			t.Fatalf("trace missing track metadata %s", want)
		}
	}
}

func TestObsMetricsCoverAllLayers(t *testing.T) {
	_, m := obsRun(t)
	out := string(m)
	for _, want := range []string{
		"# TYPE armci_op_count counter\n",
		`armci_op_count{op="get",size="le4K"} 1`,
		`armci_op_count{op="rmw",size="le256"} 1`,
		"# TYPE armci_op_latency_ns histogram\n",
		`armci_op_latency_ns_count{op="put"}`,
		`pami_ctx_advances{ctx="0",rank="0"}`,
		`pami_am_dispatch_ns_count{ctx="0"}`,
		"# TYPE pami_ctx_starve_max_ns gauge\n",
		`pami_ctx_starve_max_ns{ctx="0",rank="1"}`,
		`pami_ctx_lock_wait_ns_count{ctx="0"}`,
		"# TYPE network_messages counter\n",
		"# TYPE network_link_qdelay_ns histogram\n",
		"# TYPE sim_events counter\n",
		"# TYPE sim_final_ns gauge\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, out)
		}
	}
	// The AM dispatch histogram actually saw the acc/rmw traffic.
	if !strings.Contains(out, `armci_acc{rank="0"} 1`) {
		t.Fatalf("acc not counted:\n%s", out)
	}
}

func TestRunWithoutRegistryStillWorks(t *testing.T) {
	cfg := Config{Procs: 2, ProcsPerNode: 1, AsyncThread: true}
	MustRun(cfg, func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 64)
		if rt.Rank != 0 {
			return
		}
		local := rt.LocalAlloc(th, 64)
		rt.Get(th, a.At(1), local, 64)
		rt.FetchAdd(th, a.At(1), 1)
	})
}

// TestStatNames: the protocol counters' names are distinct, and Get finds
// each counter by its name and nothing under any other.
func TestStatNames(t *testing.T) {
	var s Stats
	seen := map[string]bool{}
	for st, name := range statNames {
		if seen[name] {
			t.Fatalf("%q names two counters", name)
		}
		seen[name] = true
		s[st] = int64(st + 1)
	}
	for st, name := range statNames {
		if got := s.Get(name); got != int64(st+1) {
			t.Errorf("Get(%q) = %d, want %d", name, got, st+1)
		}
	}
	if got := s.Get("no.such.counter"); got != 0 {
		t.Errorf("Get of an unknown name = %d, want 0", got)
	}
}
