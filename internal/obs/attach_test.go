package obs

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
)

// exports renders a registry's metrics as both text expositions.
func exports(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.SnapshotJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestAttachExportsLikeAdd: a counter read from a field exports,
// snapshots and merges to the bytes the same count made with Add does —
// a field never incremented included, as a counter created and never
// added to.
func TestAttachExportsLikeAdd(t *testing.T) {
	names := []string{"sim/events", "pami/ctx.advances{rank=3,ctx=1}", "fault/windows"}
	fields := []uint64{41, 7, 0}

	added, attached := New(), New()
	for i, name := range names {
		added.Counter(name).Add(int64(fields[i]))
		attached.Attach(name, &fields[i])
	}
	if got, want := exports(t, attached), exports(t, added); got != want {
		t.Fatalf("attached exports\n%s\nwant the Add form's\n%s", got, want)
	}

	pa, pb := New(), New()
	pa.Merge(added)
	pb.Merge(attached)
	if got, want := exports(t, pb), exports(t, pa); got != want {
		t.Fatalf("merged attached\n%s\nwant the merged Add form\n%s", got, want)
	}
}

// TestAttachSourcesSum: every source of one name counts — two attached
// fields and an Add, as a one-lane kernel's shared and lane tallies both
// feed network/messages.
func TestAttachSourcesSum(t *testing.T) {
	r := New()
	shared, lane := uint64(5), uint64(3)
	r.Attach("network/messages", &shared)
	r.Attach("network/messages", &lane)
	r.Counter("network/messages").Add(2)
	if v := r.Counter("network/messages").Value(); v != 10 {
		t.Fatalf("value = %d, want 5 + 3 + 2", v)
	}
	lane++
	if v := r.Counter("network/messages").Value(); v != 11 {
		t.Fatalf("value after a field moved = %d, want 11", v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "# TYPE network_messages counter\nnetwork_messages 11\n"; buf.String() != want {
		t.Fatalf("exposition %q, want %q", buf.String(), want)
	}
}

// TestAttachMergeSamples: Merge copies the value a field has at that
// moment; the parent does not follow the field afterwards.
func TestAttachMergeSamples(t *testing.T) {
	parent := New()
	child := parent.NewChild()
	n := uint64(4)
	child.Attach("sim/events", &n)
	parent.Merge(child)
	n = 100
	if v := parent.Counter("sim/events").Value(); v != 4 {
		t.Fatalf("parent = %d after the field moved, want the merge-time 4", v)
	}
	if v := child.Counter("sim/events").Value(); v != 100 {
		t.Fatalf("child = %d, want the field's 100", v)
	}
}

// TestAttachConcurrentBumps: a field bumped with atomic.AddUint64 by many
// goroutines while another exports under a lock, as a server's counts are
// scraped. Race-free under -race, and the final exposition holds every
// bump.
func TestAttachConcurrentBumps(t *testing.T) {
	const workers, k = 8, 2000
	var (
		mu      sync.Mutex
		n       uint64
		bumpers sync.WaitGroup
	)
	r := New()
	r.Attach("serve/cache.hits", &n)
	done, scraped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-done:
				return
			default:
			}
			mu.Lock()
			err := r.WritePrometheus(io.Discard)
			mu.Unlock()
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		bumpers.Add(1)
		go func() {
			defer bumpers.Done()
			for i := 0; i < k; i++ {
				atomic.AddUint64(&n, 1)
			}
		}()
	}
	bumpers.Wait()
	close(done)
	<-scraped
	var buf bytes.Buffer
	mu.Lock()
	err := r.WritePrometheus(&buf)
	mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("# TYPE serve_cache_hits counter\nserve_cache_hits %d\n", workers*k); buf.String() != want {
		t.Fatalf("exposition %q, want %q", buf.String(), want)
	}
}

func TestAttachNilRegistry(t *testing.T) {
	var r *Registry
	n := uint64(1)
	r.Attach("sim/events", &n) // no-op
	if v := r.Counter("sim/events").Value(); v != 0 {
		t.Fatalf("nil registry counter = %d, want 0", v)
	}
	if got := exports(t, r); got != `{"counters":{},"gauges":{},"histograms":{}}` {
		t.Fatalf("nil registry exports %q", got)
	}
}
