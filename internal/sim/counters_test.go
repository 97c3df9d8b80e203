package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// kernelCounts reads the kernel's counters the way an export does: through
// the registry, which samples the fields attached to it.
func kernelCounts(r *obs.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, name := range []string{"sim/events", "sim/rounds", "sim/boundary_ops"} {
		out[name] = r.Counter(name).Value()
	}
	return out
}

// TestCounters: the kernel keeps each count in one field and the registry
// reads it there — on one lane (sim/events only) and on several (events
// merged from every lane's child, plus rounds and boundary operations), in
// the export and in a later read alike.
func TestCounters(t *testing.T) {
	t.Run("one lane", func(t *testing.T) {
		reg := obs.New()
		k := NewKernel()
		k.SetObs(reg)
		k.Spawn("sleeper", func(th *Thread) {
			for i := 0; i < 5; i++ {
				th.Sleep(3)
			}
		})
		k.At(4, func() {})
		if err := k.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		fired := int64(k.EventsFired())
		if fired == 0 {
			t.Fatal("no events fired")
		}
		got := kernelCounts(reg)
		if got["sim/events"] != fired || got["sim/rounds"] != 0 || got["sim/boundary_ops"] != 0 {
			t.Fatalf("registry = %v; the kernel fired %d events in no rounds", got, fired)
		}
		var prom bytes.Buffer
		if err := reg.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("\nsim_events %d\n", fired); !strings.Contains(prom.String(), want) {
			t.Fatalf("exposition lacks %q:\n%s", strings.TrimSpace(want), prom.String())
		}
	})

	t.Run("lanes", func(t *testing.T) {
		reg := obs.New()
		k := NewKernel()
		k.SetObs(reg)
		k.ConfigureLanes(2, 2, 10, nil)
		for i, ln := range k.Lanes() {
			ln, dst := ln, k.Lanes()[1-i]
			k.SpawnOn(ln, fmt.Sprintf("w%d", i), func(th *Thread) {
				for j := 0; j < 10; j++ {
					th.Sleep(7)
					ln.DeferRemote(th.Now()+10, func(at Time) { dst.ScheduleAbs(at+10, func() {}) })
				}
			})
		}
		k.At(25, func() {})
		if err := k.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		want := map[string]int64{
			"sim/events":       int64(k.EventsFired()),
			"sim/rounds":       int64(k.rounds),
			"sim/boundary_ops": int64(k.boundaryOps),
		}
		if want["sim/rounds"] == 0 || want["sim/boundary_ops"] != 20 {
			t.Fatalf("kernel counted %v: want rounds and 20 boundary operations", want)
		}
		if got := kernelCounts(reg); !reflect.DeepEqual(got, want) {
			t.Fatalf("registry = %v, kernel fields = %v", got, want)
		}
	})
}

// TestCountersMatchMap: the counts the registry samples from the kernel's
// fields equal what a map kept beside every event and boundary operation
// would, over a random history of local events, cross-lane sends and
// coordinator events, at several lane and worker counts.
func TestCountersMatchMap(t *testing.T) {
	const latency = Time(20)
	for _, lanes := range []int{1, 2, 4} {
		for _, workers := range []int{1, 3} {
			for seed := uint64(1); seed <= 3; seed++ {
				rng := NewRNG(seed)
				reg := obs.New()
				k := NewKernel()
				k.SetObs(reg)
				k.ConfigureLanes(lanes, workers, latency, nil)
				fired := make([]int64, lanes) // each lane's slot is written by its window's owner only
				ref := map[string]int64{}     // written on the coordinator goroutine only
				for i, ln := range k.Lanes() {
					i, ln := i, ln
					for e := 0; e < 40; e++ {
						delay := Time(rng.Intn(500))
						if rng.Intn(3) > 0 {
							ln.At(delay, func() { fired[i]++ })
							continue
						}
						j := rng.Intn(lanes)
						dst := k.Lanes()[j]
						send := func(at Time) {
							ref["sim/boundary_ops"]++
							dst.ScheduleAbs(at+latency, func() { fired[j]++ })
						}
						ln.At(delay, func() {
							fired[i]++
							if dst == ln {
								ln.Defer(ln.Now()+latency, send)
							} else {
								ln.DeferRemote(ln.Now()+latency, send)
							}
						})
					}
				}
				for c := rng.Intn(5); c >= 0; c-- {
					k.At(Time(rng.Intn(500)), func() { ref["sim/events"]++ })
				}
				if err := k.Run(); err != nil {
					t.Fatalf("lanes=%d workers=%d seed=%d: %v", lanes, workers, seed, err)
				}
				for _, n := range fired {
					ref["sim/events"] += n
				}
				ref["sim/rounds"] = int64(k.rounds)
				if got := kernelCounts(reg); !reflect.DeepEqual(got, ref) {
					t.Fatalf("lanes=%d workers=%d seed=%d: registry = %v, map = %v", lanes, workers, seed, got, ref)
				}
			}
		}
	}
}
