package main

// refwork.go is the benchmark's yardstick: a small discrete-event loop of
// its own — a binary heap of heap-allocated events, handlers that touch
// the state of pseudo-randomly chosen ranks and allocate the messages
// they send — that uses nothing of the repository, so no change to the
// repository makes it faster or slower. It is run beside every timed
// operation. What it costs at that moment says how fast the host is at
// that moment for this kind of code (pointer-heavy, allocating, a working
// set past the private caches): the shared host the benchmark is checked
// on slows such code by a quarter for minutes at a time when its
// neighbours use the memory system, and a time divided by the yardstick's
// time beside it does not move with that.
//
// The yardstick runs in a process of its own, started once per run and
// asked for one measurement at a time while the workload stands still:
// inside the workload's process its allocations would start collections
// that mark the workload's heap, and its cost would depend on the very
// code it is held against.

import (
	"bufio"
	"container/heap"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// refNominalUS is the scale of op_cost_us: it reads in microseconds of a
// host on which one run of the yardstick takes 100 ms of CPU time. (The
// reference host takes 120–130 ms in a quiet spell and up to 230 ms in a
// busy one.)
const refNominalUS = 100_000

// refEvents is how many events one run of the yardstick simulates.
const refEvents = 100_000

type refRank struct {
	inbox   []*refMsg
	counter map[int]int64
	vec     [32]float64
}

type refMsg struct {
	from, to int
	data     []float64
}

type refEvent struct {
	at   int64
	seq  int64
	rank int
	msg  *refMsg
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].seq < h[j].seq)
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// refWork runs the yardstick once — it builds its world, simulates
// nEvents events and drops everything — and returns a checksum, which is
// the same every time.
func refWork(nEvents int) float64 {
	const nRanks = 16384
	ranks := make([]*refRank, nRanks)
	for i := range ranks {
		ranks[i] = &refRank{counter: make(map[int]int64, 4)}
	}
	var h refHeap
	var seq int64
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { // xorshift64*
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		return x * 0x2545f4914f6cdd1d
	}
	for i := 0; i < 1024; i++ {
		seq++
		heap.Push(&h, &refEvent{at: int64(next() % 1000), seq: seq, rank: int(next() % nRanks)})
	}
	sum := 0.0
	for n := 0; n < nEvents && h.Len() > 0; n++ {
		ev := heap.Pop(&h).(*refEvent)
		r := ranks[ev.rank]
		if ev.msg != nil {
			for i, v := range ev.msg.data {
				r.vec[i%len(r.vec)] += v
			}
			r.inbox = append(r.inbox, ev.msg)
			if len(r.inbox) > 8 {
				r.inbox = r.inbox[:0]
			}
			r.counter[ev.msg.from%7]++
		}
		to := int(next() % nRanks)
		msg := &refMsg{from: ev.rank, to: to, data: make([]float64, 8+int(next()%24))}
		for i := range msg.data {
			msg.data[i] = r.vec[i%len(r.vec)] + float64(i)
		}
		sum += r.vec[n%len(r.vec)]
		seq++
		heap.Push(&h, &refEvent{at: ev.at + 1 + int64(next()%500), seq: seq, rank: to, msg: msg})
	}
	return sum
}

// refCPU runs the yardstick once in this process and returns the CPU
// time it took, in microseconds.
func refCPU(nEvents int) float64 {
	c0 := cpuNow()
	refWork(nEvents)
	return float64((cpuNow() - c0).Nanoseconds()) / 1e3
}

// yardstickMain is the yardstick's process: for every byte on standard
// input it runs the yardstick once and prints the CPU time; it ends when
// standard input does, which it does when the benchmark closes it or dies.
func yardstickMain() {
	in, one := bufio.NewReader(os.Stdin), make([]byte, 1)
	refWork(refEvents) // warm: the heap grown, the code paged in
	for {
		if _, err := io.ReadFull(in, one); err != nil {
			return
		}
		fmt.Println(strconv.FormatFloat(refCPU(refEvents), 'f', 1, 64))
	}
}

// yardstick is the handle on the yardstick's process.
type yardstick struct {
	cmd *exec.Cmd // nil: measure in this process (the test's check path)
	in  io.WriteCloser
	out *bufio.Reader
}

// startYardstick starts the yardstick's process: this same binary with
// -yardstick. The test's check path, whose binary is the test's and which
// times nothing, runs a sliver of the yardstick in-process instead.
func startYardstick(e *env) (*yardstick, error) {
	if e.short {
		return &yardstick{}, nil
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-yardstick")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start the yardstick: %w", err)
	}
	return &yardstick{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// measure runs the yardstick once, while the caller waits, and returns
// its CPU time in microseconds.
func (y *yardstick) measure() (float64, error) {
	if y.cmd == nil {
		return refCPU(2_000), nil
	}
	if _, err := y.in.Write([]byte{'\n'}); err != nil {
		return 0, fmt.Errorf("yardstick: %w", err)
	}
	line, err := y.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("yardstick: %w", err)
	}
	us, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
	if err != nil || us <= 0 {
		return 0, fmt.Errorf("yardstick: bad reading %q", line)
	}
	return us, nil
}

// stop ends the yardstick's process and waits for it.
func (y *yardstick) stop() {
	if y.cmd != nil {
		y.in.Close() // end of input is its signal to end
		y.cmd.Wait() // its exit status says nothing its readings have not
	}
}
