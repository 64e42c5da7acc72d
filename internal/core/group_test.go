package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWBGroupAccounting drives injection and execution by hand on an
// unstarted scheduler, pinning down the exact accounting: the global
// inflight count is the sum of the per-group counts, group counts move only
// with their own tasks, and a drained group reads zero while another group
// still has inflight tasks.
func TestWBGroupAccounting(t *testing.T) {
	s := stopped(2)
	w := s.workers[0]
	ga, gb := s.NewGroup(), s.NewGroup()
	ran := 0
	ga.Spawn(Solo(func(*Ctx) { ran++ }))
	gb.SpawnBatch([]Task{
		Solo(func(*Ctx) { ran++ }),
		Solo(func(*Ctx) { ran++ }),
	})
	if ga.Pending() != 1 || gb.Pending() != 2 || s.Pending() != 3 {
		t.Fatalf("after spawn: ga=%d gb=%d global=%d, want 1 2 3",
			ga.Pending(), gb.Pending(), s.Pending())
	}
	for s.takeInjected(w) {
	}
	if ga.Pending() != 1 || gb.Pending() != 2 || s.Pending() != 3 {
		t.Fatal("injection must not change inflight counts")
	}
	// The inject list is FIFO and takeInjected pushes to the queue bottom,
	// so PopTop drains in spawn order: ga's task first.
	w.runSolo(w.queues[0].PopTop())
	if ga.Pending() != 0 || gb.Pending() != 2 || s.Pending() != 2 {
		t.Fatalf("after ga's task: ga=%d gb=%d global=%d, want 0 2 2",
			ga.Pending(), gb.Pending(), s.Pending())
	}
	// ga is quiescent — its Wait returns immediately — while gb still has
	// inflight tasks.
	ga.Wait()
	w.runSolo(w.queues[0].PopTop())
	w.runSolo(w.queues[0].PopTop())
	if gb.Pending() != 0 || s.Pending() != 0 || ran != 3 {
		t.Fatalf("after drain: gb=%d global=%d ran=%d", gb.Pending(), s.Pending(), ran)
	}
}

// TestWBGroupInheritance checks that Ctx.Spawn attaches children to the
// spawning task's group and that Ctx.Group exposes it.
func TestWBGroupInheritance(t *testing.T) {
	s := stopped(2)
	w := s.workers[0]
	g := s.NewGroup()
	var sawGroup *Group
	g.Spawn(Solo(func(ctx *Ctx) {
		sawGroup = ctx.Group()
		ctx.Spawn(Solo(func(*Ctx) {}))
	}))
	s.takeInjected(w)
	w.runSolo(w.queues[0].PopTop())
	if sawGroup != g {
		t.Fatalf("Ctx.Group() = %p, want %p", sawGroup, g)
	}
	if g.Pending() != 1 {
		t.Fatalf("child must inherit the group: pending = %d, want 1", g.Pending())
	}
	w.runSolo(w.queues[0].PopTop())
	if g.Pending() != 0 || s.Pending() != 0 {
		t.Fatalf("after drain: group=%d global=%d", g.Pending(), s.Pending())
	}
	// Group-less external spawns have no group and do not touch g.
	s.Spawn(Solo(func(ctx *Ctx) {
		if ctx.Group() != nil {
			t.Error("group-less task sees a group")
		}
	}))
	s.takeInjected(w)
	w.runSolo(w.queues[0].PopTop())
	if g.Pending() != 0 || s.Pending() != 0 {
		t.Fatal("group-less task leaked into a group count")
	}
}

// TestWBSpawnBatchValidatesBeforeAccounting checks that a batch containing
// an invalid task panics without leaking any inflight count: a client
// recovering the panic must still be able to Wait on the group.
func TestWBSpawnBatchValidatesBeforeAccounting(t *testing.T) {
	s := stopped(2)
	g := s.NewGroup()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("invalid batch task must panic")
			}
		}()
		g.SpawnBatch([]Task{
			Solo(func(*Ctx) {}),
			Func(1, nil), // valid
			&badTask{},   // Threads() = 0: rejected
		})
	}()
	if g.Pending() != 0 || s.Pending() != 0 {
		t.Fatalf("panicking batch leaked counts: group=%d global=%d",
			g.Pending(), s.Pending())
	}
	g.Wait() // must return immediately, nothing was accounted
}

type badTask struct{}

func (*badTask) Threads() int { return 0 }
func (*badTask) Run(*Ctx)     {}

// TestWBWaitReturnsAfterShutdown checks the close-vs-request race of the
// multi-client API: a client blocked in Wait must return (not spin
// forever) when the scheduler is shut down with its tasks still queued.
func TestWBWaitReturnsAfterShutdown(t *testing.T) {
	s := stopped(2) // workers never run: the spawned task stays queued
	g := s.NewGroup()
	g.Spawn(Solo(func(*Ctx) {}))
	s.done.Store(true) // what Shutdown does; no workers to join here
	done := make(chan struct{})
	go func() {
		g.Wait()
		s.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait hung after shutdown with outstanding tasks")
	}
}

// TestGroupWaitIndependence is the tentpole property end to end: one
// client's Wait returns when its own group drains even though another
// group's task is still running, and a group's Wait does not return while
// that group still has an inflight task, however idle the rest of the
// scheduler is.
func TestGroupWaitIndependence(t *testing.T) {
	s := newTest(t, Options{P: 4})
	release := make(chan struct{})
	started := make(chan struct{})
	ga := s.NewGroup()
	ga.Spawn(Solo(func(*Ctx) { close(started); <-release }))
	<-started

	gb := s.NewGroup()
	var ran atomic.Int64
	for i := 0; i < 100; i++ {
		gb.Spawn(Solo(func(ctx *Ctx) {
			ctx.Spawn(Solo(func(*Ctx) { ran.Add(1) }))
			ran.Add(1)
		}))
	}
	gb.Wait() // must not wait on ga's blocked task
	if got := ran.Load(); got != 200 {
		t.Fatalf("gb ran %d tasks, want 200", got)
	}
	if ga.Pending() != 1 {
		t.Fatalf("ga pending = %d, want 1 (still blocked)", ga.Pending())
	}

	waitReturned := make(chan struct{})
	go func() { ga.Wait(); close(waitReturned) }()
	select {
	case <-waitReturned:
		t.Fatal("ga.Wait returned while its task was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-waitReturned
	s.Wait() // global quiescence still works
	if s.Pending() != 0 {
		t.Fatalf("global pending = %d after all groups drained", s.Pending())
	}
}

// TestGroupInterleavedLifecycles runs several rounds of overlapping group
// lifecycles (spawn trees into many live groups, wait in shifting order,
// reuse drained groups) and checks that the scheduler's counters end
// consistent: every group and the global count at zero, and the worker
// statistics accounting every solo task exactly once (Spawns == TasksRun;
// steal transfers move queued nodes without re-counting them).
func TestGroupInterleavedLifecycles(t *testing.T) {
	s := newTest(t, Options{P: 4})
	const (
		groups = 6
		rounds = 4
		roots  = 5
		kids   = 4
	)
	var total atomic.Int64
	gs := make([]*Group, groups)
	for i := range gs {
		gs[i] = s.NewGroup()
	}
	for r := 0; r < rounds; r++ {
		for _, g := range gs {
			for k := 0; k < roots; k++ {
				g.Spawn(Solo(func(ctx *Ctx) {
					for j := 0; j < kids; j++ {
						ctx.Spawn(Solo(func(*Ctx) { total.Add(1) }))
					}
					total.Add(1)
				}))
			}
		}
		// Wait in a different order every round; drained groups are
		// reused by the next round.
		for i := range gs {
			g := gs[(i+r)%groups]
			g.Wait()
			if p := g.Pending(); p != 0 {
				t.Fatalf("round %d: drained group pending = %d", r, p)
			}
		}
	}
	want := int64(groups * rounds * roots * (1 + kids))
	if got := total.Load(); got != want {
		t.Fatalf("ran %d tasks, want %d", got, want)
	}
	if s.Pending() != 0 {
		t.Fatalf("global pending = %d", s.Pending())
	}
	// Every solo task ran exactly once and entered the queues exactly once:
	// the injected roots as inject takes, the interior children as spawns
	// (steal transfers move queued nodes without re-counting them).
	st := s.Stats()
	wantSpawns := int64(groups * rounds * roots * kids)
	wantTakes := int64(groups * rounds * roots)
	if st.TasksRun != want || st.Spawns != wantSpawns || st.InjectTakes != wantTakes {
		t.Fatalf("counters inconsistent: TasksRun=%d Spawns=%d InjectTakes=%d, want %d %d %d",
			st.TasksRun, st.Spawns, st.InjectTakes, want, wantSpawns, wantTakes)
	}
}

// TestGroupTeamTasks checks per-group accounting for team tasks: the task
// counts once in its group however many members execute it, and concurrent
// groups running team tasks drain independently.
func TestGroupTeamTasks(t *testing.T) {
	const p = 8
	s := newTest(t, Options{P: p})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g := s.NewGroup()
			var members atomic.Int64
			np := 2 << uint(c%2) // teams of 2 and 4
			const reps = 8
			for i := 0; i < reps; i++ {
				g.Spawn(Func(np, func(ctx *Ctx) {
					members.Add(1)
					ctx.Barrier()
				}))
			}
			g.Wait()
			if got := members.Load(); got != int64(np*reps) {
				t.Errorf("client %d: members = %d, want %d", c, got, np*reps)
			}
			if g.Pending() != 0 {
				t.Errorf("client %d: pending = %d", c, g.Pending())
			}
		}(c)
	}
	wg.Wait()
	s.Wait()
	if s.Pending() != 0 {
		t.Fatalf("global pending = %d", s.Pending())
	}
}

// TestSchedulerRunIsOneShotGroup checks that s.Run still blocks until its
// whole task tree completes (the pre-group contract) and leaves no residue.
func TestSchedulerRunIsOneShotGroup(t *testing.T) {
	s := newTest(t, Options{P: 4})
	var ran atomic.Int64
	s.Run(Solo(func(ctx *Ctx) {
		for i := 0; i < 50; i++ {
			ctx.Spawn(Solo(func(c *Ctx) {
				c.Spawn(Solo(func(*Ctx) { ran.Add(1) }))
				ran.Add(1)
			}))
		}
	}))
	if got := ran.Load(); got != 100 {
		t.Fatalf("Run returned before its tree drained: ran = %d, want 100", got)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after Run", s.Pending())
	}
}

// TestNilTaskIsTheEmptyComputation pins the contract the sort roots rely on
// ("nil = nothing to sort"): spawning or running nil succeeds without
// admitting anything — even where a real task would be refused.
func TestNilTaskIsTheEmptyComputation(t *testing.T) {
	s := newTest(t, Options{P: 2})
	g := s.NewGroup()
	for name, err := range map[string]error{
		"Scheduler.Run": s.Run(nil),
		"Group.Run":     g.Run(nil),
		"Group.Spawn":   g.Spawn(nil),
	} {
		if err != nil {
			t.Errorf("%s(nil) = %v, want nil", name, err)
		}
	}
	if n := s.Admission().Injected; n != 0 {
		t.Fatalf("nil tasks were injected: Injected = %d, want 0", n)
	}
	if g.Pending() != 0 || s.Pending() != 0 {
		t.Fatalf("nil tasks left work pending: group %d, scheduler %d", g.Pending(), s.Pending())
	}
	s.Shutdown()
	if err := s.Run(nil); err != nil {
		t.Fatalf("Run(nil) after Shutdown = %v, want nil", err)
	}
}
