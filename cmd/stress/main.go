// Command stress tortures the team-building scheduler with randomized mixed
// workloads and verifies the execution invariants: every task runs exactly
// once per required thread, local ids are a permutation of 0…r−1, and the
// scheduler quiesces. It is the repository's protocol-correctness fuzzer;
// run it for minutes or hours when touching internal/core.
//
// Usage:
//
//	stress -p 8 -rounds 200 -tasks 500 -seed 1
//	stress -p 6 -randomized          # non-power-of-two p + Refinement 4
//	stress -p 8 -chaos               # fault injection + cancel storm
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/topo"
)

func main() {
	var (
		p          = flag.Int("p", 8, "workers")
		rounds     = flag.Int("rounds", 100, "stress rounds")
		tasks      = flag.Int("tasks", 300, "root tasks per round")
		seed       = flag.Uint64("seed", 1, "prng seed")
		randomized = flag.Bool("randomized", false, "randomized stealing (Refinement 4)")
		noReuse    = flag.Bool("noreuse", false, "disband teams after every task")
		chaosMode  = flag.Bool("chaos", false, "fault injection: stalls, delays, bounded admission, cancel storm")
		verbose    = flag.Bool("v", false, "per-round progress")
	)
	flag.Parse()

	opts := core.Options{
		P: *p, Randomized: *randomized, DisableTeamReuse: *noReuse, Seed: *seed,
	}
	var inj *chaos.Injector
	if *chaosMode {
		inj = chaos.New(chaos.Options{
			Seed:            *seed,
			StallEvery:      256,
			StallDur:        50 * time.Microsecond,
			ParkStallEvery:  4,
			DelayTakeEvery:  32,
			AdmitDelayEvery: 32,
			DelayDur:        20 * time.Microsecond,
			CancelEvery:     2, // MaybeCancel is rolled once per round per group
		})
		opts.Fault = inj.Fault
		// Tight admission bounds force saturation so the cancel storm finds
		// admitted-but-not-started work to revoke.
		opts.MaxInject = 2 * *p
		opts.MaxPendingPerGroup = *p
	}
	s := core.New(opts)
	defer s.Shutdown()

	if *chaosMode {
		chaosStress(s, inj, *rounds, *tasks, *seed, *verbose)
		return
	}
	rng := dist.NewRNG(*seed)
	maxTeam := s.MaxTeam()

	start := time.Now()
	for round := 0; round < *rounds; round++ {
		var execs, want, badLocal atomic.Int64
		for i := 0; i < *tasks; i++ {
			// Random requirement, biased toward small tasks like real
			// workloads; includes non-power-of-two requirements.
			r := 1
			switch rng.Intn(5) {
			case 0, 1, 2:
				r = 1
			case 3:
				r = 1 << rng.Intn(topo.Log2Floor(maxTeam)+1)
			case 4:
				r = 1 + rng.Intn(maxTeam)
			}
			want.Add(int64(r))
			depth := rng.Intn(3)
			s.Spawn(makeTask(r, depth, maxTeam, &execs, &badLocal, &want, rng.Split()))
		}
		s.Wait()
		if got := execs.Load(); got != want.Load() {
			fmt.Fprintf(os.Stderr, "round %d: executions %d, want %d\n%s\n",
				round, got, want.Load(), s.DumpState())
			os.Exit(1)
		}
		if b := badLocal.Load(); b != 0 {
			fmt.Fprintf(os.Stderr, "round %d: %d bad local-id observations\n", round, b)
			os.Exit(1)
		}
		if *verbose {
			fmt.Printf("round %d ok: %d executions\n", round, execs.Load())
		}
	}
	st := s.Stats()
	fmt.Printf("OK: %d rounds in %v\n  %s\n", *rounds, time.Since(start).Round(time.Millisecond), st)
}

// makeTask builds a task requiring r threads; the team member with local id
// 0 spawns child tasks down to the given depth. All members validate their
// local id range and count executions. Each task owns a split of the
// parent's RNG stream, so the whole spawn tree is reproducible from -seed
// regardless of scheduling order.
func makeTask(r, depth, maxTeam int, execs, badLocal, want *atomic.Int64, rng *dist.RNG) core.Task {
	return core.Func(r, func(ctx *core.Ctx) {
		execs.Add(1)
		if ctx.LocalID() < 0 || ctx.LocalID() >= ctx.TeamSize() || ctx.TeamSize() != r {
			badLocal.Add(1)
		}
		ctx.Barrier()
		if ctx.LocalID() == 0 && depth > 0 {
			for i := 0; i < 2; i++ {
				cr := 1 + rng.Intn(maxTeam)
				want.Add(int64(cr))
				ctx.Spawn(makeTask(cr, depth-1, maxTeam, execs, badLocal, want, rng.Split()))
			}
		}
	})
}

// chaosStress is the -chaos mode: each round floods several groups with
// mixed-requirement tasks through the bounded, fault-injected scheduler
// while the main goroutine storms cancels at them concurrently. The
// invariants are the robustness tentpole's acceptance criteria, checked
// every round:
//
//   - the scheduler quiesces (Pending() == 0) despite revoked work
//   - groups that were never canceled executed every admitted member
//   - canceled groups report the storm's cause from WaitErr, and their
//     inflight reconciles to zero
//   - globally, injected == taken + revoked once drained
func chaosStress(s *core.Scheduler, inj *chaos.Injector, rounds, tasks int, seed uint64, verbose bool) {
	const groupsPerRound = 4
	maxTeam := s.MaxTeam()
	errStorm := errors.New("stress: chaos storm")
	start := time.Now()
	var canceledTotal, completedTotal, revokedPrev int64

	type gstate struct {
		g     *core.Group
		execs atomic.Int64
		want  atomic.Int64
		done  chan struct{}
	}
	for round := 0; round < rounds; round++ {
		gs := make([]*gstate, groupsPerRound)
		for gi := range gs {
			st := &gstate{g: s.NewGroup(), done: make(chan struct{})}
			gs[gi] = st
			rng := dist.NewRNG(seed ^ uint64(round*groupsPerRound+gi))
			go func() {
				defer close(st.done)
				for i := 0; i < tasks/groupsPerRound; i++ {
					r := 1
					if rng.Intn(4) == 0 {
						r = 1 + rng.Intn(maxTeam)
					}
					st.want.Add(int64(r))
					err := st.g.Spawn(core.Func(r, func(ctx *core.Ctx) {
						st.execs.Add(1)
						spin(2 * time.Microsecond) // keep workers busy so the queue backs up
						ctx.Barrier()
					}))
					if err != nil {
						// Only cancellation (or shutdown) refuses a blocking
						// spawn; the task never ran, so take it back.
						st.want.Add(-int64(r))
						return
					}
				}
			}()
		}
		// Storm cancels while the spawners are mid-flood, in several delayed
		// passes: early cancels reject the groups' later spawns, late ones
		// revoke nodes already parked in the backed-up inject queue.
		for pass := 0; pass < 3; pass++ {
			time.Sleep(200 * time.Microsecond)
			for _, st := range gs {
				inj.MaybeCancel(st.g, errStorm)
			}
		}
		for _, st := range gs {
			<-st.done
			err := st.g.WaitErr()
			switch {
			case st.g.Canceled():
				canceledTotal++
				if !errors.Is(err, errStorm) {
					fmt.Fprintf(os.Stderr, "round %d: canceled group WaitErr = %v, want storm cause\n", round, err)
					os.Exit(1)
				}
			default:
				completedTotal++
				if err != nil {
					fmt.Fprintf(os.Stderr, "round %d: live group WaitErr = %v\n", round, err)
					os.Exit(1)
				}
				if got, want := st.execs.Load(), st.want.Load(); got != want {
					fmt.Fprintf(os.Stderr, "round %d: live group executions %d, want %d\n%s\n",
						round, got, want, s.DumpState())
					os.Exit(1)
				}
			}
			if p := st.g.Pending(); p != 0 {
				fmt.Fprintf(os.Stderr, "round %d: group pending = %d after WaitErr\n", round, p)
				os.Exit(1)
			}
		}
		s.Wait()
		if p := s.Pending(); p != 0 {
			fmt.Fprintf(os.Stderr, "round %d: scheduler pending = %d after drain\n%s\n", round, p, s.DumpState())
			os.Exit(1)
		}
		if adm := s.Admission(); adm.Injected != adm.Taken+adm.Revoked {
			fmt.Fprintf(os.Stderr, "round %d: admission does not reconcile: %s\n", round, adm)
			os.Exit(1)
		}
		if verbose {
			adm := s.Admission()
			fmt.Printf("round %d ok: +%d revoked\n", round, adm.Revoked-revokedPrev)
			revokedPrev = adm.Revoked
		}
	}
	adm, ist := s.Admission(), inj.Stats()
	fmt.Printf("OK (chaos): %d rounds in %v\n  groups: %d canceled / %d completed; %s\n"+
		"  faults: stalls=%d park-stalls=%d team-park-stalls=%d take-delays=%d admit-delays=%d cancels=%d\n",
		rounds, time.Since(start).Round(time.Millisecond),
		canceledTotal, completedTotal, adm,
		ist.Injected[core.FaultWorkerLoop], ist.Injected[core.FaultPark], ist.Injected[core.FaultTeamPark],
		ist.Injected[core.FaultInjectTake], ist.Injected[core.FaultAdmit], ist.Cancels)
	if canceledTotal == 0 || adm.Revoked == 0 {
		fmt.Fprintln(os.Stderr, "chaos storm never landed: no cancellations or revocations — weak run")
		os.Exit(1)
	}
}

// spin busy-waits for roughly d without yielding the worker, standing in
// for a small CPU-bound task body.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}
