package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/reg"
	"repro/internal/stats"
)

// Tests of the parking protocol (park.go). An idle worker blocks with no
// timer, so a lost wake-up is a hang: every live test here runs its scenario
// under runWithDeadline, and scripts/check.sh repeats them under -count=10
// and -race.

// parkedWithin polls until n workers have announced themselves parked, or
// gives up after d.
func parkedWithin(s *Scheduler, n int, d time.Duration) bool {
	for deadline := time.Now().Add(d); s.parked() != n; {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
	return true
}

// waitParked blocks until n workers have announced themselves parked.
func waitParked(t *testing.T, s *Scheduler, n int) {
	t.Helper()
	if !parkedWithin(s, n, 10*time.Second) {
		t.Fatalf("parked = %d, want %d; scheduler state:\n%s", s.parked(), n, s.DumpState())
	}
}

func wakesBy(s *Scheduler, src wakeSource) int64 { return s.wakes[src].Load() }

// TestParkWakeOnInject: with every worker parked, an external Group.Spawn
// alone gets its task running.
func TestParkWakeOnInject(t *testing.T) {
	s := newTest(t, Options{P: 4})
	waitParked(t, s, 4)
	// Announced is not yet blocked: a worker still before its re-check would
	// see the injection and withdraw, which Parks rightly does not count.
	waitFor(t, s, "every worker blocked", func() bool { return s.Stats()[stats.Parks] >= 4 })
	ran := false
	runWithDeadline(t, s, 10*time.Second, func() {
		g := s.NewGroup()
		g.Spawn(Solo(func(*Ctx) { ran = true }))
		g.Wait()
	})
	if !ran {
		t.Fatal("task did not run")
	}
	if got := wakesBy(s, wakeInject); got < 1 {
		t.Fatalf("inject wake-ups = %d, want ≥ 1", got)
	}
	if st := s.Stats(); st[stats.Parks] < 4 {
		t.Fatalf("Parks = %d, want ≥ 4 (every worker parked before the spawn)", st[stats.Parks])
	}
}

// TestParkWakeOnSpawn: an interior Ctx.Spawn from the one busy worker wakes
// its parked partner. The parent blocks inside its body until the child has
// run, so only the woken partner can run the child.
func TestParkWakeOnSpawn(t *testing.T) {
	s := newTest(t, Options{P: 2})
	waitParked(t, s, 2)
	var parent, child int
	runWithDeadline(t, s, 10*time.Second, func() {
		s.Run(Solo(func(ctx *Ctx) {
			parent = ctx.WorkerID()
			if !parkedWithin(s, 1, 10*time.Second) {
				t.Error("the partner of the busy worker is not parked")
			}
			latch := make(chan struct{})
			ctx.Spawn(Solo(func(c *Ctx) {
				child = c.WorkerID()
				close(latch)
			}))
			<-latch
		}))
	})
	if child == parent {
		t.Fatalf("child ran on worker %d, which was blocked in the parent", child)
	}
	if got := wakesBy(s, wakeSpawn); got < 1 {
		t.Fatalf("spawn wake-ups = %d, want ≥ 1", got)
	}
}

// TestParkWakeOnTeam: an r = P team task submitted to parked workers. The
// injection wakes one worker; the other P−1 are woken by its advertisement.
func TestParkWakeOnTeam(t *testing.T) {
	const p = 4
	s := newTest(t, Options{P: p})
	waitParked(t, s, p)
	var seen [p]atomic.Int32
	runWithDeadline(t, s, 10*time.Second, func() {
		s.Run(Func(p, func(ctx *Ctx) {
			seen[ctx.LocalID()].Add(1)
			ctx.Barrier()
		}))
	})
	for lid := range seen {
		if got := seen[lid].Load(); got != 1 {
			t.Fatalf("local id %d ran %d times, want 1", lid, got)
		}
	}
	if got := wakesBy(s, wakeTeam); got < 1 {
		t.Fatalf("team wake-ups = %d, want ≥ 1", got)
	}
}

// TestParkWakeOnStolenBatch: a thief that lands more than one task passes
// the wake on to its own partner. Only workers 2 and 3 of four run; the test
// is worker 0. Five tasks are pushed on worker 0 with one wake-up (the
// others are suppressed the way a searching worker suppresses them), which
// goes to worker 2, worker 0's only parked partner. Worker 2 steals two at
// level 1, and the first two tasks to start wait for each other — so the
// test passes only if worker 3 was woken too, and the one who can have done
// that is worker 2, for the batch it landed.
func TestParkWakeOnStolenBatch(t *testing.T) {
	s := build(Options{P: 4})
	defer s.Shutdown()
	s.wg.Add(2)
	go s.workers[2].loop()
	go s.workers[3].loop()
	waitParked(t, s, 2)

	var started, ran atomic.Int32
	meet := make(chan struct{})
	task := Solo(func(*Ctx) {
		switch started.Add(1) {
		case 1:
			<-meet
		case 2:
			close(meet)
		}
		ran.Add(1)
	})
	w0 := s.workers[0]
	s.park.searching.Add(1)
	for i := 0; i < 4; i++ {
		w0.push(task)
	}
	s.park.searching.Add(-1)
	if got := wakesBy(s, wakeSpawn); got != 0 {
		t.Fatalf("%d wake-ups sent while a worker was searching", got)
	}
	w0.push(task)
	runWithDeadline(t, s, 10*time.Second, func() {
		for ran.Load() != 5 {
			time.Sleep(50 * time.Microsecond)
		}
	})
	if got := s.workers[2].st[stats.Wakes].Load(); got < 1 {
		t.Fatalf("worker 2 sent %d wake-ups for its stolen batch, want ≥ 1", got)
	}
	if got := wakesBy(s, wakeSpawn); got < 2 {
		t.Fatalf("spawn wake-ups = %d, want ≥ 2 (the push and the batch)", got)
	}
}

// TestParkShutdown: Shutdown returns with every worker parked.
func TestParkShutdown(t *testing.T) {
	s := New(Options{P: 4})
	waitParked(t, s, 4)
	runWithDeadline(t, s, 10*time.Second, s.Shutdown)
}

// TestParkIdleCost: nobody polls. Once the workers have parked after the
// last request, no worker's backoff counter moves any more.
func TestParkIdleCost(t *testing.T) {
	s := newTest(t, Options{P: 4})
	s.Run(Solo(func(ctx *Ctx) {
		for i := 0; i < 64; i++ {
			ctx.Spawn(Solo(func(*Ctx) {}))
		}
	}))
	waitParked(t, s, 4)
	before := s.WorkerStats()
	time.Sleep(50 * time.Millisecond)
	for i, after := range s.WorkerStats() {
		if after[stats.Backoffs] != before[i][stats.Backoffs] || after[stats.StealAttempts] != before[i][stats.StealAttempts] {
			t.Fatalf("worker %d polled while idle: backoffs %d → %d, steal rounds %d → %d", i,
				before[i][stats.Backoffs], after[stats.Backoffs], before[i][stats.StealAttempts], after[stats.StealAttempts])
		}
	}
}

// TestDumpStateParked: the dump's first line counts the parked workers and
// each parked worker's line is marked.
func TestDumpStateParked(t *testing.T) {
	s := newTest(t, Options{P: 3})
	waitParked(t, s, 3)
	dump := s.DumpState()
	first, _, _ := strings.Cut(dump, "\n")
	if !strings.Contains(first, " parked=3 ") {
		t.Fatalf("first line lacks parked=3: %q", first)
	}
	if got := strings.Count(dump, " PARKED"); got != 3 {
		t.Fatalf("%d worker lines marked PARKED, want 3:\n%s", got, dump)
	}
}

// ---- whitebox: the protocol's pieces on a scheduler whose workers never run

// fakeParked is the set of workers fakePark announced and woken has not yet
// found claimed (the whitebox tests run one at a time).
var fakeParked = map[*worker]bool{}

// fakePark announces w the way park does, without blocking.
func fakePark(w *worker) {
	w.slot.Arm(slotIdle)
	w.sched.park.n.Add(1)
	fakeParked[w] = true
}

// woken returns the ids of the fake-parked workers that were claimed since,
// and takes each one's token: a claim without its signal is the deadline.
func woken(t *testing.T, s *Scheduler) []int {
	t.Helper()
	var ids []int
	for _, w := range s.workers {
		if fakeParked[w] && w.slot.Tag() == 0 {
			delete(fakeParked, w)
			runWithDeadline(t, s, 10*time.Second, func() { w.slot.Sleep() })
			ids = append(ids, w.id)
		}
	}
	return ids
}

// TestWBParkStatePadded holds parkState to the size the compiler gives it:
// n and searching each sit alone on a cache line only while the padding
// around them adds up to whole lines.
func TestWBParkStatePadded(t *testing.T) {
	var ps parkState
	if sz := unsafe.Sizeof(ps); sz%64 != 0 {
		t.Fatalf("sizeof(parkState) = %d, not a multiple of 64: fix the padding", sz)
	}
	if n, se := unsafe.Offsetof(ps.n)/64, unsafe.Offsetof(ps.searching)/64; n == se {
		t.Fatalf("n and searching share cache line %d", n)
	}
}

func TestWBWorkVisible(t *testing.T) {
	noop := func(*Ctx) {}
	t.Run("solo task is visible to everybody", func(t *testing.T) {
		s := stopped(4)
		s.workers[0].push(Solo(noop))
		for _, w := range s.workers[1:] {
			if !w.workVisible() {
				t.Fatalf("worker %d does not see worker 0's r = 1 task", w.id)
			}
		}
		if s.workers[0].workVisible() {
			t.Fatal("a worker's own queue is not a source it steals from")
		}
	})
	t.Run("team task is invisible inside its own block", func(t *testing.T) {
		s := stopped(4)
		s.workers[0].push(Func(2, noop))
		if s.workers[1].workVisible() {
			t.Fatal("worker 1 shares the task's block with the victim: it registers, it must not steal")
		}
		if !s.workers[2].workVisible() || !s.workers[3].workVisible() {
			t.Fatal("workers 2 and 3 can steal the r = 2 task and run it as their own block")
		}
	})
	t.Run("team task is invisible to a worker whose block does not fit", func(t *testing.T) {
		s := stopped(6)
		s.workers[4].push(Func(4, noop))
		if s.workers[5].workVisible() {
			t.Fatal("worker 5 cannot host a 4-block in p = 6")
		}
		if !s.workers[1].workVisible() {
			t.Fatal("worker 1 can host the r = 4 task worker 4 cannot")
		}
	})
	t.Run("advertisement is visible inside its block", func(t *testing.T) {
		s := stopped(4)
		s.workers[0].regw.Store(reg.R{Req: 2, Acq: 1, Team: 1})
		if !s.workers[1].workVisible() {
			t.Fatal("worker 1 is wanted by coordinator 0")
		}
		if s.workers[2].workVisible() {
			t.Fatal("worker 2 is outside the advertised block")
		}
		s.workers[0].regw.Store(reg.R{Req: 2, Acq: 2, Team: 2})
		if s.workers[1].workVisible() {
			t.Fatal("a complete team wants nobody")
		}
	})
	t.Run("pending injection is visible to everybody", func(t *testing.T) {
		s := stopped(3)
		s.NewGroup().Spawn(Solo(noop))
		for _, w := range s.workers {
			if !w.workVisible() {
				t.Fatalf("worker %d does not see the pending injection", w.id)
			}
		}
	})
}

func TestWBWakeThiefTargets(t *testing.T) {
	cases := []struct {
		name   string
		p      int
		parked []int
		pub, j int
		want   []int
	}{
		{"nearest partner first", 8, []int{1, 2, 4, 7}, 0, 0, []int{1}},
		{"next level when the nearest is busy", 8, []int{2, 4, 7}, 0, 0, []int{2}},
		{"any worker when no partner is parked", 8, []int{7}, 0, 0, []int{7}},
		{"team task skips the partner inside its block", 8, []int{1, 2, 4}, 0, 1, []int{2}},
		{"team task nobody can take wakes nobody", 2, []int{1}, 0, 1, nil},
		{"unhostable team task goes to a block that fits", 6, []int{5, 0, 3}, 4, 2, []int{0}},
		{"p = 2 has one partner", 2, []int{1}, 0, 0, []int{1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := stopped(c.p)
			for _, id := range c.parked {
				fakePark(s.workers[id])
			}
			pub := s.workers[c.pub]
			pub.wakeThief(pub, c.j)
			if got := woken(t, s); fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Fatalf("woke %v, want %v", got, c.want)
			}
			if got, want := s.parked(), len(c.parked)-len(c.want); got != want {
				t.Fatalf("parked count = %d, want %d", got, want)
			}
			if got := int(s.park.searching.Load()); got != len(c.want) {
				t.Fatalf("searching = %d, want %d (a claimed worker searches)", got, len(c.want))
			}
		})
	}
}

func TestWBWakeSuppressedWhileSearching(t *testing.T) {
	s := stopped(4)
	for _, w := range s.workers[1:] {
		fakePark(w)
	}
	w0 := s.workers[0]
	s.park.searching.Add(1)
	w0.wakeThief(w0, 0)
	s.wakeForInject(nil)
	if got := woken(t, s); got != nil {
		t.Fatalf("woke %v while a worker was searching", got)
	}
	// A team task is not something any searcher can take: it is not held back.
	w0.wakeThief(w0, 1)
	if got := woken(t, s); fmt.Sprint(got) != "[2]" {
		t.Fatalf("team-task wake-up went to %v, want [2]", got)
	}
	s.park.searching.Store(0)
	s.wakeForInject(nil)
	if got := woken(t, s); fmt.Sprint(got) != "[1]" {
		t.Fatalf("inject wake-up went to %v, want [1]", got)
	}
}

func TestWBWakeTeamWakesTheBlock(t *testing.T) {
	s := stopped(8)
	for _, w := range s.workers {
		if w.id != 5 {
			fakePark(w)
		}
	}
	s.workers[5].wakeTeam(4)
	if got := woken(t, s); fmt.Sprint(got) != "[4 6 7]" {
		t.Fatalf("woke %v, want the rest of worker 5's 4-block", got)
	}
	if got := wakesBy(s, wakeTeam); got != 3 {
		t.Fatalf("team wake-ups = %d, want 3", got)
	}
}

// TestWBParkRecheck: a worker that announces itself while work is visible
// withdraws the announcement and does not block.
func TestWBParkRecheck(t *testing.T) {
	s := stopped(2)
	s.workers[1].push(Solo(func(*Ctx) {}))
	w := s.workers[0]
	w.startSearching()
	runWithDeadline(t, s, 10*time.Second, w.park)
	if w.slot.Tag() != 0 || s.parked() != 0 {
		t.Fatalf("announcement not withdrawn: tag=%v count=%d", w.slot.Tag(), s.parked())
	}
	if w.searching || s.park.searching.Load() != 0 {
		t.Fatal("a worker on its way into the park must stop counting as a searcher")
	}
	if w.st[stats.Parks].Load() != 0 {
		t.Fatal("Parks counted a park that never blocked")
	}
}

// TestWBParkClaimedBeforeRecheck: a waker claims the worker between its
// announcement and its re-check (the FaultPark window). The re-check finds
// the work, the withdrawal fails, and the park consumes the waker's token —
// so the next park finds the slot empty and really blocks.
func TestWBParkClaimedBeforeRecheck(t *testing.T) {
	var s *Scheduler
	claim := true
	s = build(Options{P: 2, Fault: func(p FaultPoint, id int) {
		if p == FaultPark && claim {
			claim = false
			if !s.wake(s.workers[id], wakeSpawn, nil) {
				t.Error("FaultPark fired before the worker was announced")
			}
		}
	}})
	s.workers[1].push(Solo(func(*Ctx) {}))
	w := s.workers[0]
	runWithDeadline(t, s, 10*time.Second, w.park)
	if !w.searching || s.park.searching.Load() != 1 {
		t.Fatal("a claimed worker comes back counted as a searcher")
	}
	// Second park: nothing visible, nobody claims it. It must block until
	// woken — a token that outlived the first park would let it through.
	s.workers[1].queues[0].PopBottom()
	w.stopSearching()
	back := make(chan struct{})
	go func() {
		w.park()
		close(back)
	}()
	waitParked(t, s, 1)
	select {
	case <-back:
		t.Fatal("park returned without a wake-up")
	case <-time.After(10 * time.Millisecond):
	}
	if !s.wake(w, wakeInject, nil) {
		t.Fatal("could not claim a parked worker")
	}
	<-back
	if s.wake(w, wakeInject, nil) {
		t.Fatal("claimed a worker that is not parked")
	}
}

// gateWaiters returns how many waiters are parked on z.
func gateWaiters(z *quiesce) int {
	z.mu.Lock()
	defer z.mu.Unlock()
	return z.waiters
}

// waitGateWaiters blocks until n waiters are parked on z.
func waitGateWaiters(t *testing.T, z *quiesce, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); gateWaiters(z) != n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters parked on the gate, want %d", gateWaiters(z), n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestWBQuiesceReleaseReportsWaiter: release wakes every waiter parked on the
// gate and reports whether there was one — the condition under which
// taskDone yields the CPU to the goroutine it released — and a waiter whose
// condition holds under the gate's lock does not park at all.
func TestWBQuiesceReleaseReportsWaiter(t *testing.T) {
	var z quiesce
	if z.release() {
		t.Fatal("release reported a waiter on a gate nobody waits on")
	}
	var ready atomic.Bool
	const waiters = 3
	back := make(chan struct{}, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			z.wait(ready.Load)
			back <- struct{}{}
		}()
	}
	waitGateWaiters(t, &z, waiters)
	select {
	case <-back:
		t.Fatal("a waiter returned before the release")
	default:
	}
	if !z.release() {
		t.Fatal("release did not report the waiters it woke")
	}
	for i := 0; i < waiters; i++ {
		select {
		case <-back:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d waiters woken", i, waiters)
		}
	}
	if z.release() {
		t.Fatal("a released gate reported a waiter again")
	}
	ready.Store(true)
	z.wait(ready.Load) // must not park: nobody would release it
	if z.release() {
		t.Fatal("a waiter whose condition held was counted")
	}
}

// TestWBCoordinatorBackoffResetAtTeamFix: gather escalates the coordinator's
// backoff round by round; fixing the team resets it, so the countdown that
// follows waits for members that act within microseconds starting from a spin,
// not from the sleep the gathering had reached.
func TestWBCoordinatorBackoffResetAtTeamFix(t *testing.T) {
	s := stopped(2)
	coord, member := s.workers[0], s.workers[1]
	atRun := -1
	coord.push(Func(2, func(ctx *Ctx) {
		if ctx.WorkerID() == 0 {
			atRun = ctx.w.bo.Attempts()
		}
	}))
	coord.regw.Store(reg.R{Req: 2, Acq: 1, Team: 1})
	for i := 0; i < 20; i++ {
		coord.bo.Wait() // twenty rounds of gathering
	}
	if !member.tryRegister(coord) {
		t.Fatal("register")
	}
	done := make(chan struct{})
	go func() {
		coord.gather(1, 2)
		// As coordinate() would with its queue empty: a member of the kept
		// team may be parked in memberStep, and only its coordinator wakes it.
		coord.dropCoordination(coord.regw.Load())
		close(done)
	}()
	runWithDeadline(t, s, 10*time.Second, func() {
		for {
			select {
			case <-done:
				return
			default:
				member.memberStep()
			}
		}
	})
	if atRun != 0 {
		t.Fatalf("coordinator entered the team execution at backoff level %d, want 0", atRun)
	}
	if got := coord.bo.Attempts(); got != 0 {
		t.Fatalf("coordinator left the countdown at backoff level %d, want 0", got)
	}
}
