package core

// Tests for the single-counter in-flight scheme: a task completes on exactly
// one counter (its TaskGroup if joined, its Group otherwise), and Pending
// and Shutdown's wake-ups are derived from the set of busy groups; and for
// what keeps that counter off the joined child's path — the owner-local
// TaskGroup count and the stats published at completion.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
)

// TestSchedulerWaitCoversEveryBusyGroup holds one task of one group in
// flight — an admitted task, or a detached child whose parent has returned —
// while concurrent clients flap their own groups 0→1→0 hundreds of times.
// Every flap adds a group to the busy set and removes it again next to the
// held one; the held group must stay in the set, which is what Pending sums
// and what Shutdown wakes: a waiter parked on the held group returns
// ErrShutdown once Shutdown runs, although its task never finishes.
func TestSchedulerWaitCoversEveryBusyGroup(t *testing.T) {
	for _, detached := range []bool{false, true} {
		name := "held-in-group"
		if detached {
			name = "held-by-detached"
		}
		t.Run(name, func(t *testing.T) {
			s := newTest(t, Options{P: 4})
			latch, started := make(chan struct{}), make(chan struct{})
			release := sync.OnceFunc(func() { close(latch) })
			defer release() // before newTest's Shutdown, which waits for the worker
			hold := Solo(func(*Ctx) { close(started); <-latch })
			if detached {
				child := hold
				hold = Solo(func(ctx *Ctx) { ctx.Spawn(child) })
			}
			held := s.NewGroup()
			if err := held.Spawn(hold); err != nil {
				t.Fatal(err)
			}
			<-started
			waited := make(chan error, 1)
			go func() { waited <- held.WaitErr() }()
			waitGateWaiters(t, &held.qz, 1)

			var wg sync.WaitGroup
			for c := 0; c < 4; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					g := s.NewGroup()
					for r := 0; r < 200; r++ {
						if err := g.Run(benchNoop{}); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			select {
			case err := <-waited:
				t.Fatalf("held group's Wait returned (%v) while its task was in flight", err)
			default:
			}
			if p := s.Pending(); p < 1 {
				t.Fatalf("Pending = %d with a task held in flight", p)
			}
			shut := make(chan struct{})
			go func() { s.Shutdown(); close(shut) }() // returns once release lets the held worker go
			select {
			case err := <-waited:
				if !errors.Is(err, ErrShutdown) {
					t.Fatalf("held group's WaitErr = %v, want ErrShutdown", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("Shutdown did not wake the held group: it left the busy set\n%s", s.DumpState())
			}
			release()
			<-shut
		})
	}
}

// TestWBBusySetFollowsLevel replays, single-threaded, the race between a
// group's drain and its reuse: the completer's decrement to zero, then a new
// admission, and only then the completer's lagging markIdle. The group must
// stay in the busy set — its membership follows the count, not the order the
// transitions reach the lock — and the next real drain must retire it.
func TestWBBusySetFollowsLevel(t *testing.T) {
	s := stopped(1)
	w := s.workers[0]
	g := s.NewGroup()
	g.Spawn(benchNoop{})
	if !s.takeInjected(w) {
		t.Fatal("takeInjected found no work")
	}
	n := w.queues[0].PopBottom()
	g.inflight.Add(-1) // the first half of n's taskDone
	g.Spawn(benchNoop{})
	s.markIdle(g) // the lagging second half
	if b, p := busyGroups(s), s.Pending(); b != 1 || p != 1 {
		t.Fatalf("reused group dropped out of the busy set: busy=%d pending=%d", b, p)
	}
	g.inflight.Add(1) // hand n's unit back and let both tasks finish for real
	w.runSolo(n)
	if !s.takeInjected(w) {
		t.Fatal("second task not admitted")
	}
	w.runSolo(w.queues[0].PopBottom())
	if b, p := busyGroups(s), s.Pending(); b != 0 || p != 0 {
		t.Fatalf("drained group still busy: busy=%d pending=%d", b, p)
	}
}

// busyGroups returns the size of the busy set.
func busyGroups(s *Scheduler) int {
	s.busyMu.Lock()
	defer s.busyMu.Unlock()
	return len(s.busy)
}

// TestGroupWaitCoversJoinedAndDetached builds a ternary tree in one group
// where every interior task joins two children through a TaskGroup and
// detaches a third with Ctx.Spawn. The root first blocks until one of its
// children has executed on another worker, so subtrees of both kinds
// migrate by steals. Group.Wait must return only after every leaf ran, and
// the group's count must cross zero exactly once.
func TestGroupWaitCoversJoinedAndDetached(t *testing.T) {
	s := newTest(t, Options{P: 4})
	s.StartTrace()
	const depth = 5
	want := int64(1)
	for d := 0; d < depth; d++ {
		want *= 3
	}
	var leaves atomic.Int64
	var rec func(ctx *Ctx, d int)
	rec = func(ctx *Ctx, d int) {
		if d == 0 {
			leaves.Add(1)
			return
		}
		var tg TaskGroup
		tg.Go(ctx, func(c *Ctx) { rec(c, d-1) })
		tg.Go(ctx, func(c *Ctx) { rec(c, d-1) })
		ctx.Spawn(Solo(func(c *Ctx) { rec(c, d-1) }))
		tg.Wait(ctx)
	}
	stolen := make(chan struct{})
	var once sync.Once
	g := s.NewGroup()
	err := g.Spawn(Solo(func(ctx *Ctx) {
		home := ctx.WorkerID()
		probe := func(c *Ctx) {
			if c.WorkerID() != home {
				once.Do(func() { close(stolen) })
			}
		}
		var tg TaskGroup
		for i := 0; i < 8; i++ {
			tg.Go(ctx, probe)
			ctx.Spawn(Solo(probe))
		}
		<-stolen // only a thief can run a probe elsewhere
		tg.Wait(ctx)
		rec(ctx, depth)
	}))
	if err != nil {
		t.Fatal(err)
	}
	runWithDeadline(t, s, 10*time.Second, g.Wait)
	if got := leaves.Load(); got != want {
		t.Fatalf("Group.Wait returned after %d of %d leaves", got, want)
	}
	if p := g.Pending(); p != 0 {
		t.Fatalf("group pending = %d after Wait", p)
	}
	if st := s.Stats(); st[stats.Steals] == 0 {
		t.Fatalf("no steal despite the latch: %s", st)
	}
	releases := 0
	for _, e := range s.TraceSnapshot().Events {
		if e.Kind == trace.EvGroupDone && e.X == uint32(g.gid) {
			releases++
		}
	}
	if releases != 1 {
		t.Fatalf("group crossed zero %d times, want exactly 1", releases)
	}
}

// TestGroupPendingExcludesJoined pins the documented count: a joined child
// is part of the task that waits for it, a detached one is a task of its
// own. One worker, so nothing completes behind the observing task's back.
func TestGroupPendingExcludesJoined(t *testing.T) {
	s := newTest(t, Options{P: 1})
	g := s.NewGroup()
	var mid, global int64
	err := g.Run(Solo(func(ctx *Ctx) {
		var tg TaskGroup
		tg.Spawn(ctx, benchNoop{})
		tg.Spawn(ctx, benchNoop{})
		ctx.Spawn(benchNoop{})
		mid, global = g.Pending(), s.Pending()
		tg.Wait(ctx)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if mid != 2 || global != 2 {
		t.Fatalf("Pending with 2 joined + 1 detached children = %d (scheduler %d), want 2: the task and its detached child", mid, global)
	}
}

// TestTaskGroupUnjoinedReturnPanics drives the contract check directly: a
// task that spawns into a TaskGroup and returns without Wait must panic at
// the end of its execution, not let its group drain under its children.
func TestTaskGroupUnjoinedReturnPanics(t *testing.T) {
	s := stopped(1)
	w := s.workers[0]
	var tg TaskGroup
	w.push(Solo(func(ctx *Ctx) { tg.Spawn(ctx, benchNoop{}) }))
	defer func() {
		if recover() == nil {
			t.Fatal("a task returned with un-joined TaskGroup children and nothing fired")
		}
	}()
	w.runSolo(w.queues[0].PopBottom())
}

// TestTaskGroupZeroAlloc pins the joined-child path next to
// TestSpawnZeroAlloc: a steady-state TaskGroup spawn+join of a reused task
// value allocates nothing — no wrapper, no node, no Ctx.
func TestTaskGroupZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := New(Options{P: 2})
	defer s.Shutdown()
	const k = 64
	start := make(chan struct{})
	defer close(start) // before Shutdown: the driver task must leave its loop
	round := make(chan struct{})
	s.NewGroup().Spawn(Solo(func(ctx *Ctx) {
		var tg TaskGroup
		for range start {
			for i := 0; i < k; i++ {
				tg.Spawn(ctx, benchNoop{})
			}
			tg.Wait(ctx)
			round <- struct{}{}
		}
	}))
	doRound := func() {
		start <- struct{}{}
		<-round
	}
	for i := 0; i < 16; i++ {
		doRound()
	}
	if avg := testing.AllocsPerRun(50, doRound); avg != 0 {
		t.Fatalf("TaskGroup spawn+join allocates: %v allocs per %d-task round, want 0", avg, k)
	}
}

// TestStatsExactAfterEveryGroupWait pins flushStats' promise: the owner-plain
// Spawns/TasksRun tallies are published before every completion that can
// release a Wait, so Σ Spawns + Σ InjectTakes == Σ TasksRun holds the moment
// Group.Wait returns. P = 4, a fork-join tree of joined and detached
// children per round; the first round's root holds its worker until a thief
// ran one of its children.
func TestStatsExactAfterEveryGroupWait(t *testing.T) {
	s := newTest(t, Options{P: 4})
	g := s.NewGroup()
	var rec func(ctx *Ctx, d int)
	rec = func(ctx *Ctx, d int) {
		if d == 0 {
			return
		}
		var tg TaskGroup
		tg.Go(ctx, func(c *Ctx) { rec(c, d-1) })
		tg.Go(ctx, func(c *Ctx) { rec(c, d-1) })
		ctx.Spawn(Solo(func(c *Ctx) { rec(c, d-1) }))
		tg.Wait(ctx)
	}
	stolen := make(chan struct{})
	var once sync.Once
	for round := 0; round < 20; round++ {
		err := g.Run(Solo(func(ctx *Ctx) {
			if round == 0 {
				home := ctx.WorkerID()
				var tg TaskGroup
				for i := 0; i < 8; i++ {
					tg.Go(ctx, func(c *Ctx) {
						if c.WorkerID() != home {
							once.Do(func() { close(stolen) })
						}
					})
				}
				<-stolen // only a thief can run a child elsewhere
				tg.Wait(ctx)
			}
			rec(ctx, 5)
		}))
		if err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st[stats.Spawns]+st[stats.InjectTakes] != st[stats.TasksRun] {
			t.Fatalf("round %d, right after Wait: Spawns %d + InjectTakes %d != TasksRun %d",
				round, st[stats.Spawns], st[stats.InjectTakes], st[stats.TasksRun])
		}
		if st[stats.InjectTakes] != int64(round+1) {
			t.Fatalf("round %d: InjectTakes = %d", round, st[stats.InjectTakes])
		}
	}
	if st := s.Stats(); st[stats.Steals] == 0 {
		t.Fatalf("no steal despite the latch: %s", st)
	}
}

// TestWBJoinedChildOnOwnerWritesNoAtomic pins the fast path: a child spawned
// through a TaskGroup and run by its owner moves only the owner-plain local
// count and the worker's plain stats tallies — pending stays 0 and st is
// untouched until the parent's own completion flushes it.
func TestWBJoinedChildOnOwnerWritesNoAtomic(t *testing.T) {
	s := stopped(1)
	w := s.workers[0]
	var tg TaskGroup
	var pendingAfterSpawn, pendingAfterWait, local int64
	var spawnsInside, ranInside int64
	w.push(Solo(func(ctx *Ctx) {
		tg.Spawn(ctx, benchNoop{})
		pendingAfterSpawn = tg.pending.Load()
		tg.Wait(ctx)
		pendingAfterWait, local = tg.pending.Load(), tg.local
		spawnsInside, ranInside = w.st[stats.Spawns].Load(), w.st[stats.TasksRun].Load()
	}))
	w.runSolo(w.queues[0].PopBottom())
	if pendingAfterSpawn != 0 || pendingAfterWait != 0 || local != 0 || tg.owner != w {
		t.Fatalf("joined child on its owner: pending %d after Spawn, %d after Wait, local %d, owner %v",
			pendingAfterSpawn, pendingAfterWait, local, tg.owner)
	}
	if spawnsInside != 0 || ranInside != 0 {
		t.Fatalf("stats published before a flush point: Spawns=%d TasksRun=%d", spawnsInside, ranInside)
	}
	if st := w.st.Snapshot(); st[stats.Spawns] != 2 || st[stats.TasksRun] != 2 {
		t.Fatalf("after the parent's completion: Spawns=%d TasksRun=%d, want 2 2", st[stats.Spawns], st[stats.TasksRun])
	}
}

// TestWBTaskGroupCrossWorker plays owner and thief by hand on P = 2: stolen
// children complete on pending, a stolen child's sibling is spawned on
// pending and run by the thief or stolen back by the owner's Wait, the
// owner's Wait folds what is left of local into pending — and the same
// TaskGroup then serves a parent on the other worker.
func TestWBTaskGroupCrossWorker(t *testing.T) {
	s := stopped(2)
	w0, w1 := s.workers[0], s.workers[1]
	var tg TaskGroup
	var ran atomic.Int64
	child := func(ctx *Ctx) {
		ran.Add(1)
		tg.Go(ctx, func(*Ctx) { ran.Add(1) })
	}
	check := func(who string, owner *worker) {
		t.Helper()
		if p := tg.pending.Load(); p != 0 || tg.local != 0 || tg.owner != owner {
			t.Fatalf("%s: pending %d, local %d, owner is the waiter: %v", who, p, tg.local, tg.owner == owner)
		}
	}
	w0.push(Solo(func(ctx *Ctx) {
		for i := 0; i < 3; i++ {
			tg.Go(ctx, child)
		}
		w1.runSolo(w0.queues[0].PopTop())    // A on the thief: sibling As on w1
		w1.runSolo(w0.queues[0].PopTop())    // B on the thief: sibling Bs on w1
		w1.runSolo(w1.queues[0].PopBottom()) // Bs on the thief
		if tg.local != 3 || tg.pending.Load() != -1 {
			t.Errorf("before Wait: local %d pending %d, want 3 -1", tg.local, tg.pending.Load())
		}
		tg.Wait(ctx) // C and Cs here, As stolen back from w1
		check("owner w0", w0)
	}))
	w0.runSolo(w0.queues[0].PopBottom())
	if ran.Load() != 6 {
		t.Fatalf("ran %d of 6 joined tasks", ran.Load())
	}
	if st := s.Stats(); st[stats.Spawns] != 7 || st[stats.TasksRun] != 7 || w1.st[stats.TasksRun].Load() != 3 {
		t.Fatalf("stats: %s (thief ran %d, want 3)", st, w1.st[stats.TasksRun].Load())
	}

	w1.push(Solo(func(ctx *Ctx) {
		tg.Go(ctx, func(*Ctx) { ran.Add(1) })
		tg.Go(ctx, func(*Ctx) { ran.Add(1) })
		w0.runSolo(w1.queues[0].PopTop())
		tg.Wait(ctx)
		check("owner w1", w1)
	}))
	w1.runSolo(w1.queues[0].PopBottom())
	if ran.Load() != 8 {
		t.Fatalf("ran %d of 8 joined tasks", ran.Load())
	}
}
