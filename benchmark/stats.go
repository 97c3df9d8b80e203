package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuNow is the CPU time (user + system) this process has consumed since
// it started, every thread of it. On a virtual machine the kernel leaves
// out the time the hypervisor ran somebody else (steal).
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealNow is the machine's cumulative steal time in clock ticks (1/100
// s), 0 where /proc/stat is not available.
func stealNow() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	if len(f) < 9 {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// stealPct is the share of the machine's CPU time since t0 that the
// hypervisor gave to somebody else, in percent, given stealNow() at t0.
func stealPct(steal0 int64, t0 time.Time) float64 {
	cpuSeconds := time.Since(t0).Seconds() * float64(runtime.NumCPU())
	if cpuSeconds <= 0 {
		return 0
	}
	return float64(stealNow()-steal0) / cpuSeconds // ticks of 1/100 s over seconds: already percent
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sum adds xs up.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// midmean is the mean of the middle half of xs (the interquartile mean):
// like the median it ignores a quarter of the values at either end, and
// unlike it it does not jump when the values fall in two clusters.
func midmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := len(s) / 4
	return sum(s[cut:len(s)-cut]) / float64(len(s)-2*cut)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 1).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func minMax(xs []float64) (lo, hi float64) {
	for i, x := range xs {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}

// rssMB is VmRSS, the process's resident set right now, in MB; 0 where
// /proc is not available.
func rssMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// rssSampler polls the resident set every 50 ms over the timed part of
// a run and keeps the mean and the largest reading. (The kernel's own
// high-water mark, VmHWM, also covers set-up, and cannot be reset
// without writing to /proc.)
type rssSampler struct {
	quit chan struct{}
	done chan [2]float64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan [2]float64)}
	go func() {
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		first := rssMB()
		total, n, peak := first, 1.0, first
		for {
			select {
			case <-tick.C:
				r := rssMB()
				total, n, peak = total+r, n+1, max(peak, r)
			case <-s.quit:
				s.done <- [2]float64{total / n, peak}
				return
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the mean and the peak in MB.
func (s *rssSampler) stop() (mean, peak float64) {
	close(s.quit)
	r := <-s.done
	return r[0], r[1]
}

// mallocs is the cumulative count of Go heap allocations.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// usSince is the elapsed wall time since t0 in microseconds.
func usSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }

// obsSnapshot is the obs registry's SnapshotJSON, decoded: the
// deterministic counters the simulated stack exports.
type obsSnapshot struct {
	Counters   map[string]int64 `json:"counters"`
	Gauges     map[string]int64 `json:"gauges"`
	Histograms map[string]struct {
		Count    uint64     `json:"count"`
		Buckets  [][2]int64 `json:"buckets"` // [upper bound, count]
		Overflow uint64     `json:"overflow"`
	} `json:"histograms"`
}

func snapshot(reg *Registry) (*obsSnapshot, error) {
	var buf bytes.Buffer
	if err := reg.SnapshotJSON(&buf); err != nil {
		return nil, err
	}
	var s obsSnapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// sum adds every counter whose name starts with prefix (per-rank
// counters carry a {rank=N} label).
func (s *obsSnapshot) sum(prefix string) int64 {
	var t int64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, prefix) {
			t += v
		}
	}
	return t
}

// maxGauge is the largest gauge whose name starts with prefix.
func (s *obsSnapshot) maxGauge(prefix string) int64 {
	var m int64
	for name, v := range s.Gauges {
		if strings.HasPrefix(name, prefix) && v > m {
			m = v
		}
	}
	return m
}

// histPercentile is the upper bound of the bucket holding the p-th
// percentile of the named histogram (0 when empty; the last bound when
// it falls in the overflow bucket).
func (s *obsSnapshot) histPercentile(name string, p float64) float64 {
	h, ok := s.Histograms[name]
	if !ok || h.Count == 0 {
		return 0
	}
	want := uint64(p*float64(h.Count) + 0.999999)
	var seen uint64
	for _, b := range h.Buckets {
		seen += uint64(b[1])
		if seen >= want {
			return float64(b[0])
		}
	}
	return float64(h.Buckets[len(h.Buckets)-1][0])
}
