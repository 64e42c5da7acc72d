package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/stats"
	"repro/internal/topo"
)

// newTest starts a scheduler for testing and registers cleanup.
func newTest(t *testing.T, opts Options) *Scheduler {
	t.Helper()
	s := New(opts)
	t.Cleanup(s.Shutdown)
	return s
}

func TestSoloTasks(t *testing.T) {
	s := newTest(t, Options{P: 4})
	g := s.NewGroup()
	var ran atomic.Int64
	const n = 1000
	for i := 0; i < n; i++ {
		g.Spawn(Solo(func(*Ctx) { ran.Add(1) }))
	}
	g.Wait()
	if got := ran.Load(); got != n {
		t.Fatalf("ran %d tasks, want %d", got, n)
	}
}

func TestSpawnTree(t *testing.T) {
	s := newTest(t, Options{P: 8})
	var ran atomic.Int64
	var rec func(depth int) func(*Ctx)
	rec = func(depth int) func(*Ctx) {
		return func(ctx *Ctx) {
			ran.Add(1)
			if depth > 0 {
				ctx.Spawn(Solo(rec(depth - 1)))
				ctx.Spawn(Solo(rec(depth - 1)))
			}
		}
	}
	s.Run(Solo(rec(10)))
	want := int64(1<<11 - 1) // full binary tree of depth 10
	if got := ran.Load(); got != want {
		t.Fatalf("ran %d tasks, want %d", got, want)
	}
}

func TestTeamTaskBasic(t *testing.T) {
	const p = 8
	s := newTest(t, Options{P: p})
	var mask atomic.Int64 // bit per local id
	var count atomic.Int64
	s.Run(Func(p, func(ctx *Ctx) {
		if ctx.TeamSize() != p {
			t.Errorf("TeamSize = %d, want %d", ctx.TeamSize(), p)
		}
		mask.Or(1 << uint(ctx.LocalID()))
		count.Add(1)
	}))
	if got := count.Load(); got != p {
		t.Fatalf("team task ran on %d workers, want %d", got, p)
	}
	if got := mask.Load(); got != 1<<p-1 {
		t.Fatalf("local id mask = %b, want %b", got, 1<<p-1)
	}
}

func TestTeamBarrierPhases(t *testing.T) {
	const p = 4
	s := newTest(t, Options{P: p})
	var phase [3]atomic.Int64
	s.Run(Func(p, func(ctx *Ctx) {
		for ph := 0; ph < 3; ph++ {
			phase[ph].Add(1)
			ctx.Barrier()
			// After the barrier, every member must have contributed.
			if got := phase[ph].Load(); got != p {
				t.Errorf("phase %d: saw %d contributions after barrier, want %d", ph, got, p)
			}
			ctx.Barrier()
		}
	}))
}

func TestAllTeamSizes(t *testing.T) {
	const p = 8
	s := newTest(t, Options{P: p})
	for r := 1; r <= p; r *= 2 {
		var mask atomic.Int64
		var count atomic.Int64
		s.Run(Func(r, func(ctx *Ctx) {
			if ctx.TeamSize() != r {
				t.Errorf("r=%d: TeamSize = %d", r, ctx.TeamSize())
			}
			mask.Or(1 << uint(ctx.LocalID()))
			count.Add(1)
		}))
		if got := count.Load(); got != int64(r) {
			t.Fatalf("r=%d: ran on %d workers", r, got)
		}
		if got := mask.Load(); got != 1<<uint(r)-1 {
			t.Fatalf("r=%d: local id mask = %b", r, got)
		}
	}
}

func TestTeamConsecutiveIDs(t *testing.T) {
	const p = 8
	s := newTest(t, Options{P: p})
	for r := 2; r <= p; r *= 2 {
		var ids [p]atomic.Bool
		var count atomic.Int64
		s.Run(Func(r, func(ctx *Ctx) {
			ids[ctx.WorkerID()].Store(true)
			count.Add(1)
		}))
		if count.Load() != int64(r) {
			t.Fatalf("r=%d: %d participants", r, count.Load())
		}
		// Participating worker ids must form one aligned block of size r.
		first := -1
		for i := range ids {
			if ids[i].Load() {
				first = i
				break
			}
		}
		if first < 0 || first%r != 0 {
			t.Fatalf("r=%d: team does not start at an aligned id (first=%d)", r, first)
		}
		for i := 0; i < p; i++ {
			want := i >= first && i < first+r
			if ids[i].Load() != want {
				t.Fatalf("r=%d: worker %d participation = %v, want %v", r, i, ids[i].Load(), want)
			}
		}
	}
}

func TestManyTeamTasks(t *testing.T) {
	const p = 8
	s := newTest(t, Options{P: p})
	g := s.NewGroup()
	var execs atomic.Int64 // total participant executions
	var tasks atomic.Int64
	want := int64(0)
	const rounds = 50
	for i := 0; i < rounds; i++ {
		for r := 1; r <= p; r *= 2 {
			want += int64(r)
			g.Spawn(Func(r, func(ctx *Ctx) {
				execs.Add(1)
				if ctx.LocalID() == 0 {
					tasks.Add(1)
				}
			}))
		}
	}
	g.Wait()
	if got := execs.Load(); got != want {
		t.Fatalf("participant executions = %d, want %d", got, want)
	}
	if got := tasks.Load(); got != rounds*4 {
		t.Fatalf("tasks = %d, want %d", got, rounds*4)
	}
}

func TestMixedSpawnFromTasks(t *testing.T) {
	const p = 8
	s := newTest(t, Options{P: p})
	var execs atomic.Int64
	// A team task whose local id 0 spawns a smaller team task, recursively
	// (the mixed-mode Quicksort pattern).
	var spawnRec func(r int) Task
	spawnRec = func(r int) Task {
		return Func(r, func(ctx *Ctx) {
			execs.Add(1)
			if ctx.LocalID() == 0 && r > 1 {
				ctx.Spawn(spawnRec(r / 2))
				ctx.Spawn(spawnRec(r / 2))
			}
		})
	}
	s.Run(spawnRec(p))
	// Executions: level r=8: 8; two r=4: 8; four r=2: 8; eight r=1: 8.
	want := int64(4 * p)
	if got := execs.Load(); got != want {
		t.Fatalf("executions = %d, want %d", got, want)
	}
}

func TestArbitraryRequirement(t *testing.T) {
	const p = 8
	s := newTest(t, Options{P: p})
	for _, r := range []int{3, 5, 6, 7} {
		var count atomic.Int64
		var mask atomic.Int64
		s.Run(Func(r, func(ctx *Ctx) {
			count.Add(1)
			mask.Or(1 << uint(ctx.LocalID()))
			if ctx.TeamSize() != r {
				t.Errorf("r=%d: TeamSize = %d", r, ctx.TeamSize())
			}
		}))
		if got := count.Load(); got != int64(r) {
			t.Fatalf("r=%d: ran on %d workers, want exactly r (Refinement 2)", r, got)
		}
		if got := mask.Load(); got != 1<<uint(r)-1 {
			t.Fatalf("r=%d: local ids not 0..r-1: mask=%b", r, got)
		}
	}
}

func TestNonPowerOfTwoP(t *testing.T) {
	for _, p := range []int{3, 5, 6, 7, 12} {
		p := p
		t.Run(string(rune('0'+p)), func(t *testing.T) {
			s := newTest(t, Options{P: p})
			g := s.NewGroup()
			maxTeam := topo.FloorPow2(p)
			if s.MaxTeam() != maxTeam {
				t.Fatalf("MaxTeam = %d, want %d", s.MaxTeam(), maxTeam)
			}
			var execs atomic.Int64
			want := int64(0)
			for r := 1; r <= maxTeam; r *= 2 {
				for i := 0; i < 10; i++ {
					want += int64(r)
					g.Spawn(Func(r, func(*Ctx) { execs.Add(1) }))
				}
			}
			g.Wait()
			if got := execs.Load(); got != want {
				t.Fatalf("p=%d: executions = %d, want %d", p, got, want)
			}
		})
	}
}

func TestRandomizedStealing(t *testing.T) {
	const p = 8
	s := newTest(t, Options{P: p, Randomized: true, Seed: 42})
	g := s.NewGroup()
	var execs atomic.Int64
	want := int64(0)
	for i := 0; i < 100; i++ {
		for r := 1; r <= p; r *= 2 {
			want += int64(r)
			g.Spawn(Func(r, func(*Ctx) { execs.Add(1) }))
		}
	}
	g.Wait()
	if got := execs.Load(); got != want {
		t.Fatalf("executions = %d, want %d", got, want)
	}
}

func TestP1(t *testing.T) {
	s := newTest(t, Options{P: 1})
	var ran atomic.Int64
	s.Run(Solo(func(ctx *Ctx) {
		ran.Add(1)
		ctx.Spawn(Solo(func(*Ctx) { ran.Add(1) }))
	}))
	if got := ran.Load(); got != 2 {
		t.Fatalf("ran = %d, want 2", got)
	}
	if s.MaxTeam() != 1 {
		t.Fatalf("MaxTeam = %d, want 1", s.MaxTeam())
	}
}

func TestTaskGroupSync(t *testing.T) {
	s := newTest(t, Options{P: 4})
	var before, after atomic.Int64
	s.Run(Solo(func(ctx *Ctx) {
		var g TaskGroup
		for i := 0; i < 64; i++ {
			g.Go(ctx, func(*Ctx) { before.Add(1) })
		}
		g.Wait(ctx)
		if got := before.Load(); got != 64 {
			t.Errorf("after Wait: %d children ran, want 64", got)
		}
		after.Add(1)
	}))
	if after.Load() != 1 {
		t.Fatal("parent did not finish")
	}
}

func TestTaskGroupNested(t *testing.T) {
	s := newTest(t, Options{P: 4})
	var leaves atomic.Int64
	var rec func(ctx *Ctx, depth int)
	rec = func(ctx *Ctx, depth int) {
		if depth == 0 {
			leaves.Add(1)
			return
		}
		var g TaskGroup
		g.Go(ctx, func(c *Ctx) { rec(c, depth-1) })
		g.Go(ctx, func(c *Ctx) { rec(c, depth-1) })
		g.Wait(ctx)
	}
	s.Run(Solo(func(ctx *Ctx) { rec(ctx, 6) }))
	if got := leaves.Load(); got != 64 {
		t.Fatalf("leaves = %d, want 64", got)
	}
}

func TestDisableTeamReuse(t *testing.T) {
	const p = 4
	s := newTest(t, Options{P: p, DisableTeamReuse: true})
	g := s.NewGroup()
	var execs atomic.Int64
	for i := 0; i < 20; i++ {
		g.Spawn(Func(p, func(*Ctx) { execs.Add(1) }))
	}
	g.Wait()
	if got := execs.Load(); got != 20*p {
		t.Fatalf("executions = %d, want %d", got, 20*p)
	}
}

func TestTeamPersistenceStats(t *testing.T) {
	const p = 4
	s := newTest(t, Options{P: p})
	// One worker's queue receives many same-size team tasks: the team should
	// form far fewer times than it executes (teams stay together).
	s.Run(Solo(func(ctx *Ctx) {
		for i := 0; i < 50; i++ {
			ctx.Spawn(Func(p, func(*Ctx) {}))
		}
	}))
	st := s.Stats()
	if st[stats.TeamsFormed] < 50 {
		t.Fatalf("TeamsFormed = %d, want ≥ 50 (one publish per task)", st[stats.TeamsFormed])
	}
	if st[stats.Registrations] == 0 {
		t.Fatal("no registrations recorded")
	}
}

func TestStatsTasksRun(t *testing.T) {
	s := newTest(t, Options{P: 4})
	g := s.NewGroup()
	const n = 200
	for i := 0; i < n; i++ {
		g.Spawn(Solo(func(*Ctx) {}))
	}
	g.Wait()
	if got := s.Stats()[stats.TasksRun]; got != n {
		t.Fatalf("TasksRun = %d, want %d", got, n)
	}
}

func TestRunIsReusable(t *testing.T) {
	s := newTest(t, Options{P: 4})
	var ran atomic.Int64
	for round := 0; round < 5; round++ {
		s.Run(Func(4, func(*Ctx) { ran.Add(1) }))
	}
	if got := ran.Load(); got != 20 {
		t.Fatalf("ran = %d, want 20", got)
	}
}

func TestSpawnPanicsOnBadRequirement(t *testing.T) {
	s := newTest(t, Options{P: 4})
	g := s.NewGroup()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for r > MaxTeam")
		}
	}()
	g.Spawn(Func(8, func(*Ctx) {}))
}
