package chaos

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/qsort"
	"repro/internal/stats"
)

// TestRollEdges pins the probability edges: 0 never fires, 1 always fires.
func TestRollEdges(t *testing.T) {
	i := New(Options{Seed: 1})
	for k := 0; k < 1000; k++ {
		if i.roll(0) {
			t.Fatal("roll(0) fired")
		}
		if !i.roll(1) {
			t.Fatal("roll(1) did not fire")
		}
	}
}

// TestRollRate sanity-checks the hash stream: a 1/8 roll over 64k draws
// should land within a factor of two of the expectation.
func TestRollRate(t *testing.T) {
	i := New(Options{Seed: 42})
	hits := 0
	const draws = 1 << 16
	for k := 0; k < draws; k++ {
		if i.roll(8) {
			hits++
		}
	}
	want := draws / 8
	if hits < want/2 || hits > want*2 {
		t.Fatalf("1/8 roll fired %d/%d times, want ≈%d", hits, draws, want)
	}
}

// TestFaultCounters checks that the hook attributes calls and injections to
// the right fault points.
func TestFaultCounters(t *testing.T) {
	i := New(Options{
		StallEvery: 1, StallDur: time.Microsecond,
		DelayTakeEvery: 0,
		DelayDur:       time.Microsecond,
	})
	i.Fault(core.FaultWorkerLoop, 0)
	i.Fault(core.FaultWorkerLoop, 1)
	i.Fault(core.FaultInjectTake, 0)
	st := i.Stats()
	if st.Calls[core.FaultWorkerLoop] != 2 || st.Injected[core.FaultWorkerLoop] != 2 {
		t.Fatalf("worker-loop counters = %d/%d, want 2/2",
			st.Calls[core.FaultWorkerLoop], st.Injected[core.FaultWorkerLoop])
	}
	if st.Calls[core.FaultInjectTake] != 1 || st.Injected[core.FaultInjectTake] != 0 {
		t.Fatalf("inject-take counters = %d/%d, want 1/0",
			st.Calls[core.FaultInjectTake], st.Injected[core.FaultInjectTake])
	}
}

// TestChaosStress is the fault-injection soak: a bounded scheduler with
// stalls and delays at every fault point, clients flooding groups with small
// sorts while a cancel storm revokes admitted work mid-flight. The
// invariants checked afterward are the ones the tentpole promises:
//
//   - every Wait releases (the test would hang otherwise, so -timeout guards)
//   - canceled groups report their cause, uncanceled ones report nil
//   - every group's inflight reconciles to zero
//   - admission reconciles globally: injected == taken + revoked
//   - each sort either completed sorted or its group was canceled
//
// Run it under -race (scripts/check.sh lists this package) to let the
// injected stalls widen every window the memory model must cover.
func TestChaosStress(t *testing.T) {
	inj := New(Options{
		Seed:            7,
		StallEvery:      64,
		StallDur:        50 * time.Microsecond,
		DelayTakeEvery:  16,
		AdmitDelayEvery: 16,
		DelayDur:        20 * time.Microsecond,
		CancelEvery:     3,
	})
	s := core.New(core.Options{
		P:                  4,
		MaxInject:          32,
		MaxPendingPerGroup: 16,
		Fault:              inj.Fault,
	})
	defer s.Shutdown()

	const (
		clients        = 4
		roundsPerC     = 8
		sortsPerClient = 6
	)
	errCause := errors.New("chaos: storm")
	var canceled, completed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < roundsPerC; r++ {
				g := s.NewGroup()
				data := make([][]int, sortsPerClient)
				for j := range data {
					d := make([]int, 512)
					for k := range d {
						d[k] = (k*2654435761 + c + r + j) % 977
					}
					data[j] = d
					if err := g.Spawn(qsort.ForkJoinRoot(nil, d, 64)); err != nil {
						// Only a canceled/shutdown group refuses a blocking
						// spawn; the sort for this slice never starts.
						break
					}
					// A group survives its six 1-in-3 rolls 9 times in 100, so
					// all 32 were canceled about one run in ten. Round 0 rolls
					// none: the completion path below always runs.
					if r > 0 {
						inj.MaybeCancel(g, errCause)
					}
				}
				err := g.WaitErr()
				if g.Pending() != 0 {
					t.Errorf("group pending = %d after WaitErr", g.Pending())
				}
				if g.Canceled() {
					canceled.Add(1)
					if !errors.Is(err, errCause) {
						t.Errorf("canceled group WaitErr = %v, want %v", err, errCause)
					}
					continue
				}
				completed.Add(1)
				if err != nil {
					t.Errorf("live group WaitErr = %v, want nil", err)
				}
				for _, d := range data {
					if !sorted(d) {
						t.Errorf("uncanceled group left unsorted data")
						break
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if s.Pending() != 0 {
		t.Fatalf("scheduler pending = %d after drain", s.Pending())
	}
	adm := s.Admission()
	if adm[stats.Injected] != adm[stats.Taken]+adm[stats.Revoked] {
		t.Fatalf("admission does not reconcile: injected=%d taken=%d revoked=%d",
			adm[stats.Injected], adm[stats.Taken], adm[stats.Revoked])
	}
	st := inj.Stats()
	t.Logf("chaos: %d canceled / %d completed groups; cancels=%d revoked=%d stalls=%d take-delays=%d admit-delays=%d",
		canceled.Load(), completed.Load(), st.Cancels, adm[stats.Revoked],
		st.Injected[core.FaultWorkerLoop], st.Injected[core.FaultInjectTake],
		st.Injected[core.FaultAdmit])
	if canceled.Load() == 0 {
		t.Error("cancel storm never landed — CancelEvery too weak for this seed")
	}
	if completed.Load() == 0 {
		t.Error("every group canceled — no completion path exercised")
	}
}

// FuzzCancelStorm is the team-task cancel storm, the only test that combines
// team tasks with cancellation. Each round, four groups flood a scheduler of
// P workers with tasks of width ≤ MaxTeam that each hit a barrier, through
// admission bounded at MaxInject 2P and MaxPendingPerGroup P, while worker
// loops, idle parks and team parks stall and takes and admissions are
// delayed; from round 1 on three cancel passes hit the groups mid-flood, so
// early cancels refuse the groups' later spawns and late ones revoke nodes
// already queued. Every round checks:
//
//   - a live group ran each admitted task exactly r times and WaitErr is nil
//   - a canceled group ran each admitted task r times or not at all, and
//     WaitErr reports the storm's cause
//   - every group and the scheduler read Pending() == 0 after the drain
//   - admission reconciles: Injected == Taken + Revoked
//
// Round 0 cancels nothing, so the live-group check always runs. Soak it with
//
//	go test -run '^$' -fuzz FuzzCancelStorm -fuzztime 10m ./internal/chaos
func FuzzCancelStorm(f *testing.F) {
	f.Add(uint64(1), uint8(4))
	f.Add(uint64(2), uint8(6))
	f.Add(uint64(3), uint8(8))
	f.Fuzz(func(t *testing.T, seed uint64, p uint8) {
		if p < 1 || p > 16 {
			t.Skip("P outside 1…16")
		}
		inj := New(Options{
			Seed:            seed,
			StallEvery:      256,
			StallDur:        50 * time.Microsecond,
			ParkStallEvery:  4,
			DelayTakeEvery:  32,
			AdmitDelayEvery: 32,
			DelayDur:        20 * time.Microsecond,
			CancelEvery:     2, // rolled once per pass per group
		})
		// Tight admission bounds saturate the queues, so the storm finds
		// admitted-but-not-started work to revoke.
		s := core.New(core.Options{
			P:                  int(p),
			MaxInject:          2 * int(p),
			MaxPendingPerGroup: int(p),
			Seed:               seed,
			Fault:              inj.Fault,
		})
		defer s.Shutdown()
		maxTeam := s.MaxTeam()

		const rounds, groups, tasksPerGroup = 10, 4, 30
		errStorm := errors.New("chaos: storm")
		var canceled, completed int64
		type client struct {
			g        *core.Group
			r        [tasksPerGroup]int          // width of each task
			runs     [tasksPerGroup]atomic.Int64 // executions of each task
			admitted int                         // the tasks r[:admitted] were admitted
			done     chan struct{}
		}
		for round := 0; round < rounds; round++ {
			cs := make([]*client, groups)
			for gi := range cs {
				c := &client{g: s.NewGroup(), done: make(chan struct{})}
				cs[gi] = c
				rng := dist.NewRNG(seed ^ uint64(round*groups+gi))
				go func() {
					defer close(c.done)
					for i := range c.r {
						c.r[i] = 1
						if rng.Intn(4) == 0 {
							c.r[i] = 1 + rng.Intn(maxTeam)
						}
						runs := &c.runs[i]
						err := c.g.Spawn(core.Func(c.r[i], func(ctx *core.Ctx) {
							runs.Add(1)
							spin(2 * time.Microsecond) // keep workers busy so the queues back up
							ctx.Barrier()
						}))
						if err != nil {
							return // only cancellation refuses a blocking spawn here
						}
						c.admitted++
					}
				}()
			}
			if round > 0 {
				for pass := 0; pass < 3; pass++ {
					time.Sleep(200 * time.Microsecond)
					for _, c := range cs {
						inj.MaybeCancel(c.g, errStorm)
					}
				}
			}
			for gi, c := range cs {
				<-c.done
				err := c.g.WaitErr()
				live := !c.g.Canceled()
				if live {
					completed++
					if err != nil {
						t.Fatalf("round %d group %d: live group WaitErr = %v", round, gi, err)
					}
				} else {
					canceled++
					if !errors.Is(err, errStorm) {
						t.Fatalf("round %d group %d: canceled group WaitErr = %v, want the storm's cause", round, gi, err)
					}
				}
				for i := 0; i < c.admitted; i++ {
					if n := c.runs[i].Load(); n != int64(c.r[i]) && (live || n != 0) {
						t.Fatalf("round %d group %d (live %v): task %d of width %d ran %d times\n%s",
							round, gi, live, i, c.r[i], n, s.DumpState())
					}
				}
				if n := c.g.Pending(); n != 0 {
					t.Fatalf("round %d group %d: pending = %d after WaitErr", round, gi, n)
				}
			}
			if n := s.Pending(); n != 0 {
				t.Fatalf("round %d: scheduler pending = %d after the drain\n%s", round, n, s.DumpState())
			}
			if adm := s.Admission(); adm[stats.Injected] != adm[stats.Taken]+adm[stats.Revoked] {
				t.Fatalf("round %d: admission does not reconcile: %s", round, adm)
			}
		}
		adm, st := s.Admission(), inj.Stats()
		t.Logf("groups: %d canceled / %d completed; %s; faults: stalls=%d park-stalls=%d team-park-stalls=%d take-delays=%d admit-delays=%d cancels=%d",
			canceled, completed, adm,
			st.Injected[core.FaultWorkerLoop], st.Injected[core.FaultPark], st.Injected[core.FaultTeamPark],
			st.Injected[core.FaultInjectTake], st.Injected[core.FaultAdmit], st.Cancels)
		if canceled == 0 || adm[stats.Revoked] == 0 {
			t.Fatal("the storm never landed: no cancellation or no revocation")
		}
	})
}

// spin busy-waits for roughly d without yielding the worker, standing in for
// a small CPU-bound task body.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// TestChaosDeadlineUnderSaturation drives blocking spawns into a saturated
// scheduler whose groups carry context deadlines: the blocked spawns must
// return ErrDeadlineExceeded instead of parking forever, even while the fault
// hook stalls workers.
func TestChaosDeadlineUnderSaturation(t *testing.T) {
	inj := New(Options{Seed: 11, StallEvery: 8, StallDur: 20 * time.Microsecond})
	s := core.New(core.Options{P: 2, MaxInject: 2, Fault: inj.Fault})
	defer s.Shutdown()

	// Plug the workers so admitted work cannot drain; a failing check
	// unplugs them before the deferred Shutdown waits for them.
	release := make(chan struct{})
	unplug := sync.OnceFunc(func() { close(release) })
	defer unplug()
	var plugged sync.WaitGroup
	plug := s.NewGroup()
	for i := 0; i < s.P(); i++ {
		plugged.Add(1)
		plug.Spawn(core.Func(1, func(*core.Ctx) { plugged.Done(); <-release }))
	}
	plugged.Wait()

	// Fill the inject queue to MaxInject, then overflow it from a group
	// bound to a context with a deadline: the blocking spawn must park and
	// time out.
	filler := s.NewGroup()
	for filler.PendingInjected() < 2 {
		if err := filler.TrySpawn(core.Func(1, func(*core.Ctx) {})); err != nil {
			t.Fatalf("filler TrySpawn: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	g := s.NewGroup()
	defer g.BindContext(ctx)()
	err := g.Spawn(core.Func(1, func(*core.Ctx) {}))
	if !errors.Is(err, core.ErrDeadlineExceeded) {
		t.Fatalf("blocked Spawn past deadline = %v, want ErrDeadlineExceeded", err)
	}

	unplug()
	plug.Wait()
	filler.Wait()
	if err := g.WaitErr(); !errors.Is(err, core.ErrDeadlineExceeded) {
		t.Fatalf("WaitErr = %v, want ErrDeadlineExceeded", err)
	}
}

// TestChaosParkStall widens the one window the wake-up protocol has: every
// second park stalls between "announced parked" and "re-check, then block"
// while clients inject small fork-join sorts with gaps long enough for the
// workers to run dry in between. Idle workers block without a timer, so a
// wake-up lost in that window is a hang (-timeout guards); the test also
// runs under -race, where the stall is what makes the publishers' claim and
// the sleeper's re-check actually overlap.
func TestChaosParkStall(t *testing.T) {
	inj := New(Options{Seed: 3, ParkStallEvery: 2, StallDur: 100 * time.Microsecond})
	s := core.New(core.Options{P: 4, Fault: inj.Fault})
	defer s.Shutdown()

	const clients, rounds = 3, 60
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			d := make([]int, 512)
			for r := 0; r < rounds; r++ {
				for k := range d {
					d[k] = (k*2654435761 + c + r) % 977
				}
				if err := s.Run(qsort.ForkJoinRoot(nil, d, 64)); err != nil {
					t.Errorf("Run = %v", err)
					return
				}
				if !sorted(d) {
					t.Errorf("client %d round %d left unsorted data", c, r)
					return
				}
				time.Sleep(time.Duration(40*(c+1)) * time.Microsecond)
			}
		}(c)
	}
	wg.Wait()
	if s.Pending() != 0 {
		t.Fatalf("scheduler pending = %d after the last Run returned", s.Pending())
	}
	st, sched := inj.Stats(), s.Stats()
	t.Logf("chaos: %d parks announced, %d stalled; %d blocked, %d wake-ups sent by workers",
		st.Calls[core.FaultPark], st.Injected[core.FaultPark], sched[stats.Parks], sched[stats.Wakes])
	if st.Injected[core.FaultPark] == 0 {
		t.Error("no park was stalled — the window was never widened")
	}
}

// TestChaosTeamParkStall is TestChaosParkStall for the waits inside a fixed
// team: three clients issue r = P tasks with two barrier phases each while
// every second park — in a barrier, of a member awaiting its coordinator, of
// a coordinator counting its members down — stalls between announcement and
// re-check, so wakers keep finding sleepers that are announced but not yet
// asleep. None of these waits has a timer: a lost wake-up is the -timeout.
func TestChaosTeamParkStall(t *testing.T) {
	inj := New(Options{Seed: 5, ParkStallEvery: 2, StallDur: 100 * time.Microsecond})
	const p = 4
	s := core.New(core.Options{P: p, Fault: inj.Fault})
	defer s.Shutdown()

	const clients, rounds = 3, 60
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var cells [p]atomic.Int64
			for r := 1; r <= rounds; r++ {
				err := s.Run(core.Func(p, func(ctx *core.Ctx) {
					cells[ctx.LocalID()].Store(int64(r))
					ctx.Barrier()
					if got := cells[(ctx.LocalID()+1)%p].Load(); got != int64(r) {
						t.Errorf("client %d round %d: neighbour's cell = %d after the barrier", c, r, got)
					}
					ctx.Barrier() // nobody overwrites a cell its neighbour still reads
				}))
				if err != nil {
					t.Errorf("Run = %v", err)
					return
				}
				time.Sleep(time.Duration(30*c) * time.Microsecond)
			}
		}(c)
	}
	wg.Wait()
	if s.Pending() != 0 {
		t.Fatalf("scheduler pending = %d after the last Run returned", s.Pending())
	}
	st := inj.Stats()
	t.Logf("chaos: %d team parks announced, %d stalled; %d idle parks announced, %d stalled",
		st.Calls[core.FaultTeamPark], st.Injected[core.FaultTeamPark], st.Calls[core.FaultPark], st.Injected[core.FaultPark])
	if st.Injected[core.FaultTeamPark] == 0 {
		t.Error("no team park was stalled — the window was never widened")
	}
}

func sorted(d []int) bool {
	for i := 1; i < len(d); i++ {
		if d[i-1] > d[i] {
			return false
		}
	}
	return true
}
