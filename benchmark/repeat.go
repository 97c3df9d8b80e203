package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// runChild runs one workload in a fresh process of this binary and
// returns its result line. The child's report goes to our stderr, so our
// stdout holds only the set's table.
func runChild(workload string, seed uint64, seconds float64, trace bool) (resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return resultLine{}, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	os.Stderr.Write(out.Bytes())
	var last []byte
	for sc := bufio.NewScanner(&out); sc.Scan(); {
		last = append(last[:0], sc.Bytes()...)
	}
	var line resultLine
	if err := json.Unmarshal(last, &line); err != nil {
		return line, fmt.Errorf("%s: no result line (%v): %v", workload, runErr, err)
	}
	return line, nil
}

// bounds reads each end-to-end metric's bound from BENCHMARK.json, the
// one place they are fixed.
func bounds() (map[string]float64, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string
			Bound float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	bound := make(map[string]float64)
	for _, m := range doc.EndToEnd {
		bound[m.Name] = m.Bound
	}
	return bound, nil
}

// runSet runs every workload once (k = 0) or k times, each in a fresh
// process, alternating the workload order from one set to the next, and
// prints a markdown table. With k > 1 the table gives, per end-to-end
// metric and workload, each set's value and the relative spread
// (max − min over their mean) against the metric's bound.
func runSet(k int, seed uint64, seconds float64, trace bool) error {
	sets := max(k, 1)
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	bound, err := bounds()
	if err != nil {
		return err
	}
	vals := make(map[string][]float64) // "workload metric" → one value per set
	ok := true
	for s := 0; s < sets; s++ {
		for i := range workloads {
			w := workloads[i]
			if s%2 == 1 {
				w = workloads[len(workloads)-1-i]
			}
			line, err := runChild(w.name, seed, seconds, trace)
			if err != nil {
				return err
			}
			ok = ok && line.Correct
			for _, d := range defs {
				key := w.name + " " + d.name
				vals[key] = append(vals[key], line.Metrics[d.name].Value)
			}
		}
	}

	fmt.Printf("%d set(s), seed %d, %g s timed per run, trace %v; nproc %d, GOMAXPROCS %d, %s, commit %s\n\n",
		sets, seed, seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	fmt.Print("| metric | workload |")
	for s := 0; s < sets; s++ {
		fmt.Printf(" set %d |", s+1)
	}
	if sets > 1 {
		fmt.Print(" spread | bound | within |")
	}
	cols := 2 + sets
	if sets > 1 {
		cols += 3
	}
	fmt.Println("\n|" + strings.Repeat("---|", cols))
	for _, d := range defs {
		for _, w := range workloads {
			v := vals[w.name+" "+d.name]
			fmt.Printf("| %s (%s) | %s |", d.name, d.unit, w.name)
			for _, x := range v {
				fmt.Printf(" %.6g |", x)
			}
			if sets > 1 {
				lo, hi := minMax(v)
				spread := 0.0
				if lo+hi != 0 {
					spread = (hi - lo) / ((hi + lo) / 2)
				}
				if b, gated := bound[d.name]; gated {
					fmt.Printf(" %.2f %% | %.1f %% | %v |", 100*spread, 100*b, spread <= b)
				} else {
					fmt.Printf(" %.2f %% | — | — |", 100*spread)
				}
			}
			fmt.Println()
		}
	}
	if !ok {
		return fmt.Errorf("a workload reported failed operations")
	}
	return nil
}
