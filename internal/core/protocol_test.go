package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/stats"
	"repro/internal/topo"
)

// FuzzMixedWorkload is the scheduler's protocol fuzzer: randomized
// mixed-size task trees, spawned from inside team tasks down to depth two,
// on a scheduler of P workers, checking Lemma 3's execution invariants —
// every task runs exactly once per required thread, on a team of exactly
// its width, with local ids in 0…r−1 — and that the scheduler quiesces.
// The tree is a function of the seed alone, so a failing input replays the
// same workload under a new interleaving. Soak it with
//
//	go test -run '^$' -fuzz FuzzMixedWorkload -fuzztime 10m ./internal/core
func FuzzMixedWorkload(f *testing.F) {
	f.Add(uint64(0), uint8(4), false, false)
	f.Add(uint64(0), uint8(8), false, false)
	f.Add(uint64(3), uint8(8), true, false)
	f.Add(uint64(0), uint8(8), false, true)
	f.Add(uint64(0), uint8(3), false, false)
	f.Add(uint64(0), uint8(6), false, false)
	f.Add(uint64(9), uint8(5), true, false)
	f.Add(uint64(0), uint8(12), false, false)
	f.Fuzz(func(t *testing.T, seed uint64, p uint8, randomized, noReuse bool) {
		if p < 1 || p > 16 {
			t.Skip("P outside 1…16")
		}
		t.Parallel()
		s := newTest(t, Options{P: int(p), Randomized: randomized, DisableTeamReuse: noReuse, Seed: seed})
		g := s.NewGroup()
		rng := dist.NewRNG(seed + uint64(p))
		maxTeam := s.MaxTeam()
		for round := 0; round < 10; round++ {
			var execs, want, badLocal atomic.Int64
			for i := 0; i < 60; i++ {
				r := 1
				switch rng.Intn(4) {
				case 0, 1:
					r = 1
				case 2:
					r = 1 << rng.Intn(topo.Log2Floor(maxTeam)+1)
				case 3:
					r = 1 + rng.Intn(maxTeam)
				}
				want.Add(int64(r))
				g.Spawn(fuzzTask(r, rng.Intn(3), maxTeam, &execs, &badLocal, &want, rng.Next()))
			}
			runWithDeadline(t, s, 30*time.Second, g.Wait)
			if got := execs.Load(); got != want.Load() {
				t.Fatalf("round %d: executions %d, want %d\n%s",
					round, got, want.Load(), s.DumpState())
			}
			if b := badLocal.Load(); b != 0 {
				t.Fatalf("round %d: %d bad local ids", round, b)
			}
		}
	})
}

func fuzzTask(r, depth, maxTeam int, execs, badLocal, want *atomic.Int64, seed uint64) Task {
	return Func(r, func(ctx *Ctx) {
		execs.Add(1)
		if ctx.LocalID() < 0 || ctx.LocalID() >= ctx.TeamSize() || ctx.TeamSize() != r {
			badLocal.Add(1)
		}
		ctx.Barrier()
		if ctx.LocalID() == 0 && depth > 0 {
			rng := dist.NewRNG(seed)
			for i := 0; i < 2; i++ {
				cr := 1 + rng.Intn(maxTeam)
				want.Add(int64(cr))
				ctx.Spawn(fuzzTask(cr, depth-1, maxTeam, execs, badLocal, want, rng.Next()))
			}
		}
	})
}

// TestStatsInvariants checks cross-counter consistency after a mixed run.
func TestStatsInvariants(t *testing.T) {
	s := newTest(t, Options{P: 8})
	g := s.NewGroup()
	for i := 0; i < 100; i++ {
		for r := 1; r <= 8; r *= 2 {
			g.Spawn(Func(r, func(ctx *Ctx) { ctx.Barrier() }))
		}
	}
	g.Wait()
	st := s.Stats()
	// 400 tasks; team tasks execute once per member: 100*(1+2+4+8).
	if st[stats.TasksRun] != 1500 {
		t.Fatalf("TasksRun = %d, want 1500", st[stats.TasksRun])
	}
	if st[stats.TeamTasksRun] != 1400 {
		t.Fatalf("TeamTasksRun = %d, want 1400", st[stats.TeamTasksRun])
	}
	// Team tasks with r > 1: 300 published executions.
	if st[stats.TeamsFormed] != 300 {
		t.Fatalf("TeamsFormed = %d, want 300", st[stats.TeamsFormed])
	}
	if st[stats.Registrations] == 0 || st[stats.Polls] == 0 {
		t.Fatalf("no coordination traffic recorded: %s", st)
	}
	// Every deregistration must correspond to an earlier registration.
	if st[stats.Deregistrations] > st[stats.Registrations] {
		t.Fatalf("deregistrations %d > registrations %d", st[stats.Deregistrations], st[stats.Registrations])
	}
}

// TestSoloOverheadPath asserts the r = 1 fast path stays free of team
// machinery: no teams formed, no registrations.
func TestSoloOverheadPath(t *testing.T) {
	s := newTest(t, Options{P: 4})
	s.Run(Solo(func(ctx *Ctx) {
		for i := 0; i < 1000; i++ {
			ctx.Spawn(Solo(func(*Ctx) {}))
		}
	}))
	st := s.Stats()
	if st[stats.TeamsFormed] != 0 {
		t.Fatalf("solo workload formed %d teams", st[stats.TeamsFormed])
	}
	if st[stats.Registrations] != 0 {
		t.Fatalf("solo workload triggered %d registrations", st[stats.Registrations])
	}
	if st[stats.TasksRun] != 1001 {
		t.Fatalf("TasksRun = %d", st[stats.TasksRun])
	}
}

// TestCtxAccessors validates Ctx's worker/team introspection.
func TestCtxAccessors(t *testing.T) {
	const p = 8
	s := newTest(t, Options{P: p})
	var fail atomic.Int64
	s.Run(Func(4, func(ctx *Ctx) {
		if ctx.Scheduler() != s {
			fail.Add(1)
		}
		if ctx.WorkerID() < 0 || ctx.WorkerID() >= p {
			fail.Add(1)
		}
		if ctx.TeamLeft()%4 != 0 {
			fail.Add(1)
		}
		if ctx.WorkerID()-ctx.TeamLeft() != ctx.LocalID() {
			fail.Add(1)
		}
	}))
	s.Run(Solo(func(ctx *Ctx) {
		if ctx.TeamSize() != 1 || ctx.LocalID() != 0 || ctx.TeamLeft() != ctx.WorkerID() {
			fail.Add(1)
		}
		ctx.Barrier() // must be a no-op, not a hang
	}))
	if fail.Load() != 0 {
		t.Fatalf("%d accessor violations", fail.Load())
	}
}

// TestTeamGrowShrinkCycle drives one coordinator through grow and shrink
// transitions: same worker's queue holds sizes 2, 8, 2, 8, …
func TestTeamGrowShrinkCycle(t *testing.T) {
	const p = 8
	s := newTest(t, Options{P: p})
	var execs atomic.Int64
	s.Run(Solo(func(ctx *Ctx) {
		for i := 0; i < 20; i++ {
			ctx.Spawn(Func(2, func(c *Ctx) { execs.Add(1); c.Barrier() }))
			ctx.Spawn(Func(8, func(c *Ctx) { execs.Add(1); c.Barrier() }))
		}
	}))
	if got := execs.Load(); got != 20*(2+8) {
		t.Fatalf("executions = %d, want %d", got, 20*10)
	}
}

// TestDeepTeamRecursion spawns team tasks from within team tasks several
// levels deep (beyond the quicksort pattern).
func TestDeepTeamRecursion(t *testing.T) {
	const p = 8
	s := newTest(t, Options{P: p})
	var execs atomic.Int64
	var rec func(r, depth int) Task
	rec = func(r, depth int) Task {
		return Func(r, func(ctx *Ctx) {
			execs.Add(1)
			ctx.Barrier()
			if ctx.LocalID() == 0 && depth > 0 {
				ctx.Spawn(rec(r, depth-1))
			}
		})
	}
	s.Run(rec(8, 30))
	if got := execs.Load(); got != 31*8 {
		t.Fatalf("executions = %d, want %d", got, 31*8)
	}
}

// TestDumpStateAndTrace smoke-tests the diagnostics surface.
func TestDumpStateAndTrace(t *testing.T) {
	s := newTest(t, Options{P: 4})
	s.StartTrace()
	s.Run(Func(4, func(ctx *Ctx) { ctx.Barrier() }))
	dump := s.DumpState()
	if !strings.Contains(dump, "w0") || !strings.Contains(dump, "inflight=0") {
		t.Fatalf("dump missing fields:\n%s", dump)
	}
	trace := s.TraceDump()
	if !strings.Contains(trace, "team-fixed") || !strings.Contains(trace, "publish") {
		t.Fatalf("trace missing protocol events:\n%s", trace)
	}
}

// TestManySmallTeams floods the scheduler with 2-thread tasks from all
// workers at once — heavy conflict-resolution traffic within blocks.
func TestManySmallTeams(t *testing.T) {
	const p = 8
	s := newTest(t, Options{P: p})
	var execs atomic.Int64
	s.Run(Solo(func(ctx *Ctx) {
		var fan func(depth int) Task
		fan = func(depth int) Task {
			return Func(2, func(c *Ctx) {
				execs.Add(1)
				if c.LocalID() == 0 && depth > 0 {
					c.Spawn(fan(depth - 1))
					c.Spawn(fan(depth - 1))
				}
			})
		}
		ctx.Spawn(fan(6))
	}))
	// Full binary tree of depth 6: 127 tasks × 2 executions.
	if got := execs.Load(); got != 254 {
		t.Fatalf("executions = %d, want 254", got)
	}
}

// TestWaitFromMultipleGoroutines allows concurrent external waiters.
func TestWaitFromMultipleGoroutines(t *testing.T) {
	s := newTest(t, Options{P: 4})
	g := s.NewGroup()
	var ran atomic.Int64
	for i := 0; i < 50; i++ {
		g.Spawn(Solo(func(*Ctx) { ran.Add(1) }))
	}
	done := make(chan struct{}, 3)
	for i := 0; i < 3; i++ {
		go func() { g.Wait(); done <- struct{}{} }()
	}
	for i := 0; i < 3; i++ {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("waiter %d stuck:\n%s", i, s.DumpState())
		}
	}
	if ran.Load() != 50 {
		t.Fatalf("ran = %d", ran.Load())
	}
}

// TestShutdownIdempotent calls Shutdown repeatedly and from a fresh state.
func TestShutdownIdempotent(t *testing.T) {
	s := New(Options{P: 4})
	s.Run(Solo(func(*Ctx) {}))
	s.Shutdown()
	s.Shutdown()
	s.Shutdown()
}

// TestMaxTeamEnforcement covers requirement validation at spawn.
func TestMaxTeamEnforcement(t *testing.T) {
	s := newTest(t, Options{P: 6}) // MaxTeam 4
	g := s.NewGroup()
	if s.MaxTeam() != 4 {
		t.Fatalf("MaxTeam = %d", s.MaxTeam())
	}
	s.Run(Func(4, func(*Ctx) {})) // exactly MaxTeam is fine
	for _, bad := range []int{0, -1, 5, 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("r=%d: expected panic", bad)
				}
			}()
			g.Spawn(Func(bad, func(*Ctx) {}))
		}()
	}
}

// TestTeamBarrierUnderConcurrentLoad runs barriers inside teams while solo
// tasks churn — barrier phases must not be disturbed by helping traffic.
func TestTeamBarrierUnderConcurrentLoad(t *testing.T) {
	const p = 8
	s := newTest(t, Options{P: p})
	var bad atomic.Int64
	var phase [4]atomic.Int64
	s.Run(Solo(func(ctx *Ctx) {
		for i := 0; i < 200; i++ {
			ctx.Spawn(Solo(func(*Ctx) {}))
		}
		ctx.Spawn(Func(4, func(c *Ctx) {
			for ph := 0; ph < 4; ph++ {
				phase[ph].Add(1)
				c.Barrier()
				if phase[ph].Load() != 4 {
					bad.Add(1)
				}
				c.Barrier()
			}
		}))
	}))
	if bad.Load() != 0 {
		t.Fatalf("%d barrier-phase violations", bad.Load())
	}
}

// TestPendingDrainsToZero observes the in-flight counter.
func TestPendingDrainsToZero(t *testing.T) {
	s := newTest(t, Options{P: 4})
	g := s.NewGroup()
	for i := 0; i < 100; i++ {
		g.Spawn(Solo(func(*Ctx) {}))
	}
	g.Wait()
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending = %d after Wait", got)
	}
}
