package core

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
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
	if st[stats.TasksRun] != want || st[stats.Spawns] != wantSpawns || st[stats.InjectTakes] != wantTakes {
		t.Fatalf("counters inconsistent: TasksRun=%d Spawns=%d InjectTakes=%d, want %d %d %d",
			st[stats.TasksRun], st[stats.Spawns], st[stats.InjectTakes], want, wantSpawns, wantTakes)
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
	if n := s.Admission()[stats.Injected]; n != 0 {
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

// TestNilTaskInEverySpawnForm: nil is the empty computation in all four
// spawn forms — not admitted, not accounted, no panic — and a batch's nil
// tasks take no admission room and still count in TrySpawnBatch's k, so k
// indexes ts. MaxInject 1 on a scheduler with no running workers makes the
// second live task of a batch the first refused one.
func TestNilTaskInEverySpawnForm(t *testing.T) {
	solo := Solo(func(*Ctx) {})
	for _, c := range []struct {
		name     string
		spawn    func(g *Group) (int, error)
		wantK    int // TrySpawnBatch's count; 0 for the other forms
		wantErr  error
		admitted int64
	}{
		{"Spawn", func(g *Group) (int, error) { return 0, g.Spawn(nil) }, 0, nil, 0},
		{"TrySpawn", func(g *Group) (int, error) { return 0, g.TrySpawn(nil) }, 0, nil, 0},
		{"SpawnBatch", func(g *Group) (int, error) { return 0, g.SpawnBatch([]Task{nil, solo, nil}) }, 0, nil, 1},
		{"TrySpawnBatch", func(g *Group) (int, error) { return g.TrySpawnBatch([]Task{nil, solo, nil, solo, nil}) }, 3, ErrSaturated, 1},
		{"TrySpawnBatch of nils", func(g *Group) (int, error) { return g.TrySpawnBatch([]Task{nil, nil}) }, 2, nil, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			s := build(Options{P: 1, MaxInject: 1})
			g := s.NewGroup()
			k, err := c.spawn(g)
			if k != c.wantK || err != c.wantErr {
				t.Fatalf("got (%d, %v), want (%d, %v)", k, err, c.wantK, c.wantErr)
			}
			if n := s.Admission()[stats.Injected]; n != c.admitted {
				t.Fatalf("Injected = %d, want %d", n, c.admitted)
			}
			if g.Pending() != c.admitted || int64(g.PendingInjected()) != c.admitted {
				t.Fatalf("accounted: pending %d, queued %d; want %d", g.Pending(), g.PendingInjected(), c.admitted)
			}
		})
	}
}

// TestGroupReuseRace cycles four groups, one per client goroutine, through
// Reset → Spawn(tree) → WaitErr with tracing on — the lifecycle of a pooled
// Runtime request. The worker whose decrement drains a group races the
// client's Reset of it: under -race a read of the group's era after the
// decrement fails here, and in the trace every era (its own gid, drawn by
// Reset) must be released exactly once. The rings overflow over the run, so
// "exactly once" is checked for the eras admitted after every dropping
// ring's oldest surviving event, and "at most once" for all.
func TestGroupReuseRace(t *testing.T) {
	s := newTest(t, Options{P: 4})
	s.StartTrace()
	const clients, cycles = 4, 2000
	var ran atomic.Int64
	leaf := Solo(func(*Ctx) { ran.Add(1) })
	inner := Solo(func(c *Ctx) { ran.Add(1); c.Spawn(leaf) })
	team := Func(2, func(c *Ctx) { ran.Add(1) })
	gids := make([][]uint64, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := s.NewGroup()
			for i := 0; i < cycles; i++ {
				g.Reset()
				gids[c] = append(gids[c], g.gid)
				err := g.Spawn(Solo(func(ctx *Ctx) {
					ran.Add(1)
					ctx.Spawn(inner)
					ctx.Spawn(leaf)
					if i%8 == 0 {
						ctx.Spawn(team)
					}
				}))
				if err == nil {
					err = g.WaitErr()
				}
				if err != nil {
					t.Errorf("client %d cycle %d: %v", c, i, err)
					return
				}
			}
		}()
	}
	runWithDeadline(t, s, 60*time.Second, wg.Wait)
	// A worker records a release after the decrement that lets WaitErr
	// return; once every worker is parked, every release is recorded.
	waitParked(t, s, s.P())
	s.StopTrace()
	if want := int64(clients * cycles * 4); ran.Load() < want {
		t.Fatalf("%d tasks ran, want at least %d", ran.Load(), want)
	}

	snap := s.TraceSnapshot()
	var from int64 // every ring holds all its events from here on
	first := make([]int64, len(snap.Names))
	for _, e := range snap.Events {
		if first[e.Ring] == 0 {
			first[e.Ring] = e.TS
		}
	}
	for ri, d := range snap.Dropped {
		if d > 0 {
			from = max(from, first[ri])
		}
	}
	admitted := map[uint32]int64{}
	released := map[uint32]int{}
	for _, e := range snap.Events {
		switch e.Kind {
		case trace.EvInjectEnqueue:
			admitted[e.X] = e.TS
		case trace.EvGroupDone:
			released[e.X]++
		}
	}
	checked := 0
	for _, ids := range gids {
		for _, id := range ids {
			n := released[uint32(id)]
			if n > 1 {
				t.Fatalf("era %d released %d times", id, n)
			}
			if ts, ok := admitted[uint32(id)]; ok && ts > from {
				if n != 1 {
					t.Fatalf("era %d admitted inside the window released %d times, want 1", id, n)
				}
				checked++
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d eras inside the complete part of the trace", checked)
	}
	t.Logf("%d of %d eras checked for exactly one release", checked, clients*cycles)
	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("Chrome export of %d reused eras: %v", checked, err)
	}
}
