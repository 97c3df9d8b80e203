package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/obs"
)

// The lane acts for a thread in two ways — Sleep fires its own wake-up
// when that is the lane's next event, and the lane runs a thread's steps
// (Stepper) where it would switch into it: a stepper thread's whole body
// (SpawnSteps), and what a thread with a carrier waits on (RunSteps) — and
// both must be invisible: same event order, same counts, same spans, fewer
// switches. The oracle is the kernel itself with noShortcuts set, which
// sends every Sleep the long way round and runs every step on its thread's
// own stack, a stepper thread on a carrier of its own. One seed makes one
// program and one verdict.

// TestEventSize pins the event at four words. The heap and the ring move
// events by value; at 32 bytes the compiler does that with four inline
// stores, and one pad word more turns every move into a block copy — an
// At chain went from 14–19 ns to 47 ns per event when it was tried. A new
// field has to replace one (Action replaced fn and t), not join them.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 32 {
		t.Fatalf("sizeof(event) = %d bytes, want 32", n)
	}
}

type scOp uint8

const (
	scSleep     scOp = iota // Sleep(d)
	scPark                  // arm the thread's own wake d from now, then Park
	scParkSleep             // run parkSleep{d2, &cancel}'s steps: the own wake d from now, armed first or (with a poller, d > 0) after its lock
	scWake                  // Wake(peer), a thread of the same lane
	scStop                  // d from now: set peer's cancel flag and wake it (StopProgressLoop's shape)
	scResume                // clear the thread's own cancel flag
	scAt                    // At(d, an event that logs)
	scSend                  // a deferred operation whose effect arrives in lane `lane`, logs there and wakes its thread `peer` (and, d2 == 1, posts to that lane's poller)
	scPost                  // post one item to the lane's poller and nudge it
	scLock                  // hold the lane's poller lock for d
	scPollWake              // Wake the lane's poller directly: its wake bit, unless it is parked
	scOps
)

type scStep struct {
	op    scOp
	d, d2 Time
	peer  int // thread index within the acting (scWake, scStop) or receiving (scSend) lane
	lane  int // scSend: destination lane
}

// scProgram is a whole simulation: per lane, per thread, a script.
type scProgram struct {
	partitioned bool // false: every "lane" shares an unpartitioned kernel's one scheduler
	lookahead   Time
	scripts     [][][]scStep
	// poll is, per lane, the wake-up sleep of the lane's poller, or -1 for
	// none (a missing entry is none). A poller is spawned after the lane's
	// threads and stopped by whichever of them finishes last.
	poll []Time
}

// genProgram builds seed's program: 1–4 lanes of 1–3 threads running 4–16
// steps each, and a poller on about half the lanes. Delays are tiny (0–4)
// and the lookahead is 1–5, so sleeps routinely end exactly on a queued
// event's timestamp or on the window bound — the two edges the shortcut
// rules are about.
func genProgram(seed uint64) scProgram {
	rng := NewRNG(seed)
	lanes := 1 + rng.Intn(4)
	p := scProgram{
		partitioned: lanes > 1 || rng.Intn(2) == 0,
		lookahead:   Time(1 + rng.Intn(5)),
		scripts:     make([][][]scStep, lanes),
		poll:        make([]Time, lanes),
	}
	for i := range p.poll {
		p.poll[i] = -1
		if rng.Intn(2) == 0 {
			p.poll[i] = Time(rng.Intn(4))
		}
	}
	threads := make([]int, lanes)
	for i := range threads {
		threads[i] = 1 + rng.Intn(3)
	}
	for i := range p.scripts {
		p.scripts[i] = make([][]scStep, threads[i])
		for j := range p.scripts[i] {
			steps := make([]scStep, 4+rng.Intn(13))
			for s := range steps {
				st := scStep{
					op:   scOp(rng.Intn(int(scOps))),
					d:    Time(rng.Intn(5)),
					d2:   Time(rng.Intn(4)),
					peer: rng.Intn(threads[i]),
				}
				if rng.Intn(3) == 0 {
					st.op = scSleep // keep time moving
				}
				if st.op == scSend {
					st.lane = rng.Intn(lanes)
					st.peer = rng.Intn(threads[st.lane])
				}
				steps[s] = st
			}
			p.scripts[i][j] = steps
		}
	}
	return p
}

// scEntry is one observable step: who (a thread id, or -1 for an event
// callback), which step of its script, and the lane time it saw. Its
// position in its lane's log is the order.
type scEntry struct {
	who, step int
	at        Time
}

// scResult is everything a run exposes.
type scResult struct {
	logs     [][]scEntry // per lane
	boundary []scEntry   // deferred operations, in application order
	fired    []uint64    // per lane
	events   uint64
	final    Time
	trace    []byte
	metrics  []byte
	switches uint64
}

// scPoller is a lane's poller: a stepper thread in ProgressLoop's shape
// over a queue of items, a lock and a one-thread subscription.
type scPoller struct {
	th         *Thread
	cancel     bool
	queue      int
	subscribed bool
	mu         Mutex
	passes     *obs.Counter
	log        func(step int)
	wake       Time
	at         uint8 // where Step picks up
}

// Where the poller's next step picks up.
const (
	plTop    uint8 = iota // the top of the loop
	plLock                // taking the lock
	plServe               // the next queued item, or the end of the pass
	plServed              // an item's sleep is over
	plParked              // the park after the pass is over
)

// nudge wakes the poller if it subscribed.
func (pl *scPoller) nudge(k *Kernel) {
	if pl.subscribed {
		pl.subscribed = false
		k.Wake(pl.th)
	}
}

// Step is the poller's body:
//
//	for !cancel {
//		lock; for queue > 0 { queue--; Sleep(1); log(1) }
//		log(0); passes++; subscribe; unlock
//		if cancel { return }
//		Park; if !cancel { Sleep(wake) }
//	}
func (pl *scPoller) Step(th *Thread) bool {
	for {
		switch pl.at {
		case plTop:
			if pl.cancel {
				return true
			}
			pl.at = plLock
		case plLock:
			if !pl.mu.LockStep(th) {
				return false
			}
			pl.at = plServe
		case plServe:
			if pl.queue > 0 {
				pl.queue--
				pl.at = plServed
				if !th.Charge(1) {
					return false
				}
				continue
			}
			pl.log(0)
			pl.passes.Add(1)
			pl.subscribed = true
			pl.mu.Unlock(th)
			if pl.cancel {
				return true
			}
			pl.at = plParked
			if !th.Await() {
				return false
			}
		case plServed:
			pl.log(1)
			pl.at = plServe
		case plParked:
			if pl.cancel {
				return true
			}
			pl.at = plTop
			if !th.Charge(pl.wake) {
				return false
			}
		}
	}
}

// parkSleep is a thread with a carrier waiting through steps (RunSteps),
// in a rank's wait's shape: take and drop mu (when there is one), arm its
// own wake wakeIn from then (when positive), park, then, unless *cancel
// holds at the wake, sleep d.
type parkSleep struct {
	d, wakeIn             Time
	cancel                *bool
	mu                    *Mutex
	locked, parked, slept bool
}

func (p *parkSleep) Step(th *Thread) bool {
	if p.mu != nil && !p.locked {
		if !p.mu.LockStep(th) {
			return false
		}
		p.locked = true
		p.mu.Unlock(th)
	}
	if !p.parked {
		p.parked = true
		if p.wakeIn > 0 {
			th.Lane().AtAction(p.wakeIn, th.Waker())
		}
		if !th.Await() {
			return false
		}
	}
	if *p.cancel || p.slept {
		return true
	}
	p.slept = true
	return th.Charge(p.d)
}

// run executes the program on a fresh kernel.
func (p *scProgram) run(t testing.TB, workers int, noShortcuts bool) scResult {
	t.Helper()
	k := NewKernel()
	reg := obs.New()
	k.SetObs(reg)
	lanes := len(p.scripts)
	if p.partitioned {
		k.ConfigureLanes(lanes, workers, p.lookahead, nil)
	}
	k.noShortcuts = noShortcuts

	res := scResult{logs: make([][]scEntry, lanes)}
	threads := make([][]*Thread, lanes)
	cancels := make([][]bool, lanes)
	polls := make([]*scPoller, lanes)
	post := func(i int) {
		if pl := polls[i]; pl != nil {
			pl.queue++
			pl.nudge(k)
		}
	}
	id := 0
	for i := range p.scripts {
		i, ln := i, k.LaneOf(i)
		log := func(who, step int) {
			res.logs[i] = append(res.logs[i], scEntry{who, step, ln.Now()})
		}
		if i < len(p.poll) && p.poll[i] >= 0 {
			pid := -1000 - i
			pl := &scPoller{passes: ln.Obs().Counter(fmt.Sprintf("poll/passes{lane=%d}", i)), wake: p.poll[i]}
			pl.log = func(step int) { log(pid, step) }
			lbl := fmt.Sprintf("{lane=%d}", i)
			pl.mu.Instrument(ln.Obs().Histogram("poll/lock.wait_ns"+lbl, obs.DefaultLatencyBounds),
				ln.Obs().Histogram("poll/lock.hold_ns"+lbl, obs.DefaultLatencyBounds))
			polls[i] = pl
		}
		remaining := len(p.scripts[i])
		threads[i] = make([]*Thread, len(p.scripts[i]))
		cancels[i] = make([]bool, len(p.scripts[i]))
		for j, script := range p.scripts[i] {
			j, me := j, id
			id++
			threads[i][j] = k.SpawnOn(ln, fmt.Sprintf("t%d.%d", i, j), func(th *Thread) {
				pl := polls[i]
				defer func() {
					// The last of the lane's threads stops its poller, as a
					// rank's finalize stops its progress thread.
					if remaining--; remaining == 0 && pl != nil {
						pl.cancel = true
						pl.nudge(k)
					}
				}()
				for s, st := range script {
					switch st.op {
					case scSleep:
						th.Sleep(st.d)
					case scPark:
						ln.AtAction(st.d, th.Waker())
						th.Park()
					case scParkSleep:
						ps := &parkSleep{d: st.d2, cancel: &cancels[i][j]}
						if pl != nil && st.d > 0 {
							ps.mu, ps.wakeIn = &pl.mu, st.d
						} else {
							ln.AtAction(st.d, th.Waker())
						}
						th.RunSteps(ps)
					case scWake:
						k.Wake(threads[i][st.peer])
					case scStop:
						peer := st.peer
						ln.At(st.d, func() {
							log(-1, s)
							cancels[i][peer] = true
							k.Wake(threads[i][peer])
						})
					case scResume:
						cancels[i][j] = false
					case scAt:
						ln.At(st.d, func() { log(-1, s) })
					case scSend:
						dl, dst, peer := st.lane, k.LaneOf(st.lane), st.peer
						arrive := func() {
							res.logs[dl] = append(res.logs[dl], scEntry{-1 - me, s, dst.Now()})
							k.Wake(threads[dl][peer])
							if st.d2 == 1 {
								post(dl)
							}
						}
						// The effect lands `delay` after issue: at least the
						// lookahead away in another lane, at least 1 in this one.
						delay := 1 + st.d
						if dl != i {
							delay = p.lookahead + st.d
						}
						apply := func(at Time) {
							res.boundary = append(res.boundary, scEntry{me, s, at})
							dst.ScheduleAbs(at+delay, arrive)
						}
						if dl != i && st.d2%2 == 0 {
							ln.DeferRemote(th.Now()+delay, apply)
						} else {
							ln.Defer(th.Now()+delay, apply)
						}
					case scPost:
						post(i)
					case scLock:
						if pl != nil {
							pl.mu.Lock(th)
							th.Sleep(st.d)
							pl.mu.Unlock(th)
						}
					case scPollWake:
						if pl != nil {
							k.Wake(pl.th)
						}
					}
					log(me, s)
				}
			})
		}
		if pl := polls[i]; pl != nil {
			pl.th = k.SpawnSteps(ln, "p", i, pl)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatalf("workers=%d noShortcuts=%v: %v", workers, noShortcuts, err)
	}
	for i := range p.scripts {
		res.fired = append(res.fired, k.LaneOf(i).fired)
	}
	res.events, res.final, res.switches = k.EventsFired(), k.Now(), k.Switches()
	var tr, me bytes.Buffer
	if err := reg.WriteChromeTrace(&tr); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&me); err != nil {
		t.Fatal(err)
	}
	res.trace, res.metrics = tr.Bytes(), me.Bytes()
	return res
}

// checkShortcuts is the verdict on one program: with the shortcuts and
// without, at 1, 2 and 4 workers, every run must expose what the
// unshortcut single-worker run exposes. It returns the switch counts
// (with, without).
func checkShortcuts(t testing.TB, p *scProgram) (with, without uint64) {
	t.Helper()
	want := p.run(t, 1, true)
	for _, workers := range []int{1, 2, 4} {
		for _, noShortcuts := range []bool{true, false} {
			got := p.run(t, workers, noShortcuts)
			tag := fmt.Sprintf("workers=%d noShortcuts=%v", workers, noShortcuts)
			if noShortcuts {
				if got.switches != want.switches {
					t.Fatalf("%s: %d switches, want %d", tag, got.switches, want.switches)
				}
			} else {
				// The count is a function of the schedule, not of who ran it.
				if got.switches > want.switches || (workers > 1 && got.switches != with) {
					t.Fatalf("%s: %d switches; %d at one worker, %d without shortcuts",
						tag, got.switches, with, want.switches)
				}
				with = got.switches
			}
			got.switches = want.switches
			switch {
			case !reflect.DeepEqual(got.logs, want.logs):
				t.Fatalf("%s: step logs differ\n got %v\nwant %v", tag, got.logs, want.logs)
			case !reflect.DeepEqual(got.boundary, want.boundary):
				t.Fatalf("%s: boundary order differs\n got %v\nwant %v", tag, got.boundary, want.boundary)
			case !reflect.DeepEqual(got.fired, want.fired) || got.events != want.events:
				t.Fatalf("%s: fired %v (%d), want %v (%d)", tag, got.fired, got.events, want.fired, want.events)
			case got.final != want.final:
				t.Fatalf("%s: final time %d, want %d", tag, got.final, want.final)
			case !bytes.Equal(got.trace, want.trace):
				t.Fatalf("%s: trace bytes differ", tag)
			case !bytes.Equal(got.metrics, want.metrics):
				t.Fatalf("%s: metrics differ\n got %s\nwant %s", tag, got.metrics, want.metrics)
			}
		}
	}
	return with, want.switches
}

// TestLaneShortcutsDifferential runs the oracle over a block of seeds.
// Any one program may offer the shortcuts nothing; the block must.
func TestLaneShortcutsDifferential(t *testing.T) {
	const seeds = 400
	var with, without uint64
	for seed := uint64(1); seed <= seeds; seed++ {
		p := genProgram(seed)
		w, wo := checkShortcuts(t, &p)
		with += w
		without += wo
	}
	t.Logf("%d programs: %d switches with the shortcuts, %d without", seeds, with, without)
	if with >= without {
		t.Fatalf("the shortcuts saved nothing: %d switches with, %d without", with, without)
	}
}

// FuzzLaneShortcuts is the same verdict on any seed.
func FuzzLaneShortcuts(f *testing.F) {
	for _, seed := range []uint64{1, 7, 42, 1337, 0x9e3779b97f4a7c15} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		p := genProgram(seed)
		checkShortcuts(t, &p)
	})
}

// TestLaneShortcutCases are the programs the rules were written around,
// each with the switch count that says which way the rule went.
func TestLaneShortcutCases(t *testing.T) {
	one := func(steps ...scStep) [][]scStep { return [][]scStep{steps} }
	cases := []struct {
		name          string
		p             scProgram
		with, without uint64
	}{
		{
			// Nothing else is due: no sleep leaves the thread.
			name: "lone sleeper",
			p: scProgram{lookahead: 1, scripts: [][][]scStep{one(
				scStep{op: scSleep, d: 3}, scStep{op: scSleep, d: 2})}},
			with: 1, without: 3,
		},
		{
			// The sleep ends exactly when a queued event is due. That event
			// was scheduled first and must fire first: no shortcut.
			name: "sleep ending at nextTime",
			p: scProgram{lookahead: 1, scripts: [][][]scStep{one(
				scStep{op: scAt, d: 3}, scStep{op: scSleep, d: 3})}},
			with: 2, without: 2,
		},
		{
			// One tick earlier it is the lane's next event.
			name: "sleep ending before nextTime",
			p: scProgram{lookahead: 1, scripts: [][][]scStep{one(
				scStep{op: scAt, d: 3}, scStep{op: scSleep, d: 2})}},
			with: 1, without: 2,
		},
		{
			// Two lanes, lookahead 3: lane 0's first window ends at lane 1's
			// first event (0) + 3. A sleep to exactly 3 belongs to the next
			// window; a sleep to 2 does not. Lane 1's thread only sleeps.
			name: "sleep ending at the window bound",
			p: scProgram{partitioned: true, lookahead: 3, scripts: [][][]scStep{
				one(scStep{op: scSleep, d: 3}),
				one(scStep{op: scSleep, d: 9}),
			}},
			with: 4, without: 4,
		},
		{
			name: "sleep ending inside the window",
			p: scProgram{partitioned: true, lookahead: 3, scripts: [][][]scStep{
				one(scStep{op: scSleep, d: 2}),
				one(scStep{op: scSleep, d: 9}),
			}},
			with: 3, without: 4,
		},
		{
			// A wait in steps: the wake arrives, the sleep follows, and the
			// thread is switched back in once, for both.
			name: "park then sleep",
			p: scProgram{lookahead: 1, scripts: [][][]scStep{{
				{{op: scParkSleep, d: 2, d2: 3}},
				{{op: scSleep, d: 1}, {op: scSleep, d: 5}},
			}}},
			with: 4, without: 6,
		},
		{
			// ProgressWake == 0: there is no sleep to take over, only a park.
			name: "park then sleep zero",
			p: scProgram{lookahead: 1, scripts: [][][]scStep{one(
				scStep{op: scParkSleep, d: 2, d2: 0})}},
			with: 2, without: 2,
		},
		{
			// The wake bit is already set on entry (the second thread woke the
			// first while it slept): the park returns at once and the sleep is
			// an ordinary one.
			name: "wake bit set on entry",
			p: scProgram{lookahead: 1, scripts: [][][]scStep{{
				{{op: scSleep, d: 2}, {op: scParkSleep, d: 9, d2: 3}},
				{{op: scWake, peer: 0}},
			}}},
			with: 3, without: 4,
		},
		{
			// A wake and a stop at the same instant (thread 1 arms the stop
			// for t=2, thread 0's own wake is armed for t=2 as well and fires
			// second): the cancel is seen at the wake, so the thread comes back
			// without sleeping and its next step runs at 2, not 6.
			name: "stop and wake at one instant",
			p: scProgram{lookahead: 1, scripts: [][][]scStep{{
				{{op: scParkSleep, d: 2, d2: 4}},
				{{op: scStop, d: 2, peer: 0}},
			}}},
			with: 3, without: 3,
		},
		{
			// The lane's one thread finishes, and so stops the poller, before
			// the poller's start event fires: it ends without a coroutine.
			name: "poller stopped before it ever ran",
			p: scProgram{lookahead: 1, scripts: [][][]scStep{one(
				scStep{op: scSleep})}, poll: []Time{2}},
			with: 1, without: 2,
		},
		{
			// The poller's first pass finds nothing; the post at 3 is its first
			// work, served after the wake-up with a sleep of its own. Every
			// step is the lane's: only thread 0 is switched into.
			name: "poller first has work mid-run",
			p: scProgram{lookahead: 1, scripts: [][][]scStep{one(
				scStep{op: scSleep, d: 3}, scStep{op: scPost}, scStep{op: scSleep, d: 5})}, poll: []Time{2}},
			with: 3, without: 8,
		},
		{
			// Woken before it ever ran, the poller has its wake bit set: its
			// first park returns at once, and the step goes on to the wake-up.
			name: "poller with its wake bit set on entry",
			p: scProgram{lookahead: 1, scripts: [][][]scStep{one(
				scStep{op: scPollWake}, scStep{op: scSleep, d: 4})}, poll: []Time{2}},
			with: 2, without: 5,
		},
		{
			// The poller is woken while thread 0 holds its lock: its step
			// queues for the lock and parks there, and Unlock's hand-over
			// resumes the step, not a coroutine.
			name: "poller with a contended lock",
			p: scProgram{lookahead: 1, scripts: [][][]scStep{{
				{{op: scSleep, d: 1}, {op: scLock, d: 4}},
				{{op: scSleep, d: 2}, {op: scPollWake}},
			}}, poll: []Time{0}},
			with: 5, without: 8,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			with, without := checkShortcuts(t, &c.p)
			if with != c.with || without != c.without {
				t.Fatalf("%d switches with the shortcuts, %d without; want %d and %d",
					with, without, c.with, c.without)
			}
		})
	}
}

// TestParkThenSleepCancelSeenAtWake pins what "at the wake" means for a
// wait in steps (parkSleep): the flag is read when the wake event fires. A stop that comes with the wake
// calls the sleep off; one that comes during the sleep does not shorten
// it, and the caller finds the flag set on return.
func TestParkThenSleepCancelSeenAtWake(t *testing.T) {
	for _, c := range []struct {
		stopAt, wantBack Time
	}{
		{stopAt: 10, wantBack: 10}, // with the wake: no sleep
		{stopAt: 25, wantBack: 50}, // mid-sleep: the sleep runs out
	} {
		for _, noShortcuts := range []bool{false, true} {
			k := NewKernel()
			k.noShortcuts = noShortcuts
			var cancel bool
			back := Time(-1)
			th := k.Spawn("progress", func(th *Thread) {
				th.RunSteps(&parkSleep{d: 40, cancel: &cancel})
				if !cancel {
					t.Errorf("stop at %d: flag not set on return", c.stopAt)
				}
				back = th.Now()
			})
			k.At(c.stopAt, func() { cancel = true })
			k.At(10, func() { k.Wake(th) })
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if back != c.wantBack {
				t.Fatalf("stop at %d, noShortcuts=%v: thread back at %d, want %d",
					c.stopAt, noShortcuts, back, c.wantBack)
			}
		}
	}
}
