package core

import (
	"fmt"
	"testing"

	"repro/internal/reg"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/trace"
)

// White-box protocol tests: these drive the registration state machine
// single-threaded on an unstarted scheduler, pinning down the exact
// transition semantics of Algorithms 6–9 that the concurrent tests can only
// observe statistically.

// stopped builds a scheduler whose workers never run; the test acts as every
// "thread" by calling worker methods directly.
func stopped(p int) *Scheduler {
	return build(Options{P: p})
}

func (w *worker) push(t Task) { w.spawn(t, w.sched.NewGroup()) } // test helper

func TestWBInitialState(t *testing.T) {
	s := stopped(8)
	for _, w := range s.workers {
		if w.coordp() != w {
			t.Fatal("workers must start self-coordinated")
		}
		if r := w.regw.Load(); r != reg.Idle(0) {
			t.Fatalf("initial reg = %v", r)
		}
		if got := w.chooseLevel(w.regw.Load()); got != -1 {
			t.Fatalf("empty worker chose level %d", got)
		}
	}
}

func TestWBChooseLevel(t *testing.T) {
	s := stopped(8)
	w := s.workers[0]
	w.push(Func(4, func(*Ctx) {}))
	if got := w.chooseLevel(w.regw.Load()); got != 2 {
		t.Fatalf("level = %d, want 2", got)
	}
	w.push(Solo(func(*Ctx) {}))
	if got := w.chooseLevel(w.regw.Load()); got != 0 {
		t.Fatalf("smaller task must win: level = %d, want 0", got)
	}
	// With a fixed team of 4, the team's level wins over level 0
	// (Refinement 1: the team keeps draining its queue).
	w.regw.Store(reg.R{Req: 4, Acq: 4, Team: 4, Epoch: 1})
	if got := w.chooseLevel(w.regw.Load()); got != 2 {
		t.Fatalf("team persistence violated: level = %d, want 2", got)
	}
}

func TestWBChooseLevelSkipsUnhostable(t *testing.T) {
	s := stopped(6) // blocks of 4 fit only at workers 0–3
	w := s.workers[4]
	w.push(Func(4, func(*Ctx) {}))
	if got := w.chooseLevel(w.regw.Load()); got != -1 {
		t.Fatalf("worker 4 cannot host a 4-block in p=6; level = %d", got)
	}
	w0 := s.workers[0]
	w0.push(Func(4, func(*Ctx) {}))
	if got := w0.chooseLevel(w0.regw.Load()); got != 2 {
		t.Fatalf("worker 0 must host the 4-task; level = %d", got)
	}
}

func TestWBRegistrationRoundTrip(t *testing.T) {
	s := stopped(4)
	coord, thief := s.workers[0], s.workers[1]
	coord.regw.Store(reg.R{Req: 4, Acq: 1, Team: 1, Epoch: 5})
	if !thief.tryRegister(coord) {
		t.Fatal("registration failed")
	}
	if thief.coordp() != coord || thief.regEpoch != 5 || thief.teamed {
		t.Fatalf("thief state wrong: coord=%d epoch=%d teamed=%v",
			thief.coordp().id, thief.regEpoch, thief.teamed)
	}
	if r := coord.regw.Load(); r.Acq != 2 {
		t.Fatalf("coordinator acq = %d, want 2", r.Acq)
	}
	// Deregistration undoes the count.
	if !thief.leave(coord) {
		t.Fatal("deregister failed")
	}
	if r := coord.regw.Load(); r.Acq != 1 {
		t.Fatalf("after deregister acq = %d, want 1", r.Acq)
	}
}

func TestWBRegisterRejections(t *testing.T) {
	s := stopped(8)
	coord := s.workers[0]
	// Not coordinating (Req = 1).
	if s.workers[1].tryRegister(coord) {
		t.Fatal("registered at a non-coordinating worker")
	}
	// Full team (Acq == Req).
	coord.regw.Store(reg.R{Req: 2, Acq: 2, Team: 2, Epoch: 0})
	if s.workers[1].tryRegister(coord) {
		t.Fatal("registered at a full team")
	}
	// Out-of-block thief: worker 4 is outside the 4-block of worker 0.
	coord.regw.Store(reg.R{Req: 4, Acq: 1, Team: 1, Epoch: 0})
	if s.workers[4].tryRegister(coord) {
		t.Fatal("out-of-block registration accepted")
	}
	if s.workers[3].tryRegister(coord) == false {
		t.Fatal("in-block registration rejected")
	}
}

func TestWBDeregisterBlockedByFixedTeam(t *testing.T) {
	s := stopped(4)
	coord, member := s.workers[0], s.workers[1]
	coord.regw.Store(reg.R{Req: 2, Acq: 1, Team: 1, Epoch: 7})
	if !member.tryRegister(coord) {
		t.Fatal("register")
	}
	// Coordinator fixes the team: the member may no longer leave, even
	// though its own teamed flag is still false (the race of Algorithm 9).
	coord.regw.Store(reg.R{Req: 2, Acq: 2, Team: 2, Epoch: 7})
	if member.leave(coord) {
		t.Fatal("member left a fixed team")
	}
}

func TestWBDeregisterAfterRevocation(t *testing.T) {
	s := stopped(4)
	coord, member := s.workers[0], s.workers[1]
	coord.regw.Store(reg.R{Req: 4, Acq: 1, Team: 1, Epoch: 1})
	if !member.tryRegister(coord) {
		t.Fatal("register")
	}
	// Coordinator revokes (epoch bump, acq reset).
	coord.regw.Store(reg.R{Req: 1, Acq: 1, Team: 1, Epoch: 2})
	if !member.leave(coord) {
		t.Fatal("deregister after revocation must succeed (as a no-op)")
	}
	if r := coord.regw.Load(); r.Acq != 1 {
		t.Fatalf("revoked deregistration must not decrement: %v", r)
	}
}

func TestWBMemberStepPickup(t *testing.T) {
	s := stopped(2)
	coord, member := s.workers[0], s.workers[1]
	ran := false
	task := Func(2, func(ctx *Ctx) {
		if ctx.WorkerID() == 1 {
			ran = true
			if ctx.LocalID() != 1 || ctx.TeamSize() != 2 {
				t.Errorf("lid=%d size=%d", ctx.LocalID(), ctx.TeamSize())
			}
		}
	})
	coord.push(task)
	coord.regw.Store(reg.R{Req: 2, Acq: 1, Team: 1, Epoch: 0})
	if !member.tryRegister(coord) {
		t.Fatal("register")
	}
	// Fix the team and publish by hand (what gather+publishAndRun do),
	// with the coordinator's own run omitted.
	r := coord.regw.Load()
	if !coord.regw.CAS(r, reg.R{Req: 2, Acq: 2, Team: 2, Epoch: 0}) {
		t.Fatal("fix CAS")
	}
	n := coord.queues[1].PopBottom()
	exec := &coord.exec
	exec.task, exec.teamSize, exec.width = n.task, 2, 2
	exec.pending.Store(1)
	exec.barrier.Init(1) // member-side run only in this test
	gen := s.nextGen()
	coord.cur.Store(pubWord(gen, 1))

	member.memberStep()
	if !ran {
		t.Fatal("member did not pick up the published execution")
	}
	if got := exec.pending.Load(); got != 0 {
		t.Fatalf("countdown = %d after the member's step, want 0", got)
	}
	if !member.teamed || member.lastGen != gen {
		t.Fatal("member team state not updated")
	}
	// A second step must not re-execute the same generation.
	ran = false
	member.memberStep()
	if ran {
		t.Fatal("member re-executed the same generation")
	}
}

func TestWBMemberLeavesOnDisband(t *testing.T) {
	s := stopped(2)
	coord, member := s.workers[0], s.workers[1]
	coord.regw.Store(reg.R{Req: 2, Acq: 1, Team: 1, Epoch: 0})
	if !member.tryRegister(coord) {
		t.Fatal("register")
	}
	member.teamed = true // simulate a completed pickup
	coord.regw.Store(reg.R{Req: 1, Acq: 1, Team: 1, Epoch: 1})
	member.memberStep()
	if member.coordp() != member || member.teamed {
		t.Fatal("member did not leave after disband")
	}
}

func TestWBMemberSurvivesShrinkInside(t *testing.T) {
	s := stopped(4)
	coord, member := s.workers[0], s.workers[1]
	coord.regw.Store(reg.R{Req: 4, Acq: 4, Team: 4, Epoch: 0})
	member.coord.Store(coord)
	member.teamed = true
	member.regEpoch = 0
	// Shrink 4 → 2: worker 1 stays (block {0,1}), epoch bumps.
	coord.regw.Store(reg.R{Req: 2, Acq: 2, Team: 2, Epoch: 1})
	member.memberStep()
	if member.coordp() != coord || !member.teamed || member.regEpoch != 1 {
		t.Fatal("in-block member must survive the shrink and adopt the epoch")
	}
	// Worker 2 is outside the shrunk team and must leave.
	outside := s.workers[2]
	outside.coord.Store(coord)
	outside.teamed = true
	outside.regEpoch = 0
	outside.memberStep()
	if outside.coordp() != outside || outside.teamed {
		t.Fatal("out-of-block member must leave after the shrink")
	}
}

func TestWBRegisteredMemberAdoptsFixedTeam(t *testing.T) {
	// The deadlock scenario of the development log: a registered (not yet
	// teamed) member must recognize team membership by block position even
	// across epoch bumps (preempt transitions keep a = t).
	s := stopped(2)
	coord, member := s.workers[0], s.workers[1]
	coord.regw.Store(reg.R{Req: 2, Acq: 1, Team: 1, Epoch: 3})
	if !member.tryRegister(coord) {
		t.Fatal("register")
	}
	// Fix team at epoch 3, then preempt-style epoch bump keeping a = t.
	coord.regw.Store(reg.R{Req: 2, Acq: 2, Team: 2, Epoch: 4})
	member.memberStep()
	if member.coordp() != coord {
		t.Fatal("in-team member wrongly treated the epoch bump as revocation")
	}
	if !member.teamed || member.regEpoch != 4 {
		t.Fatalf("member must adopt the team: teamed=%v epoch=%d", member.teamed, member.regEpoch)
	}
}

func TestWBStealFromPartner(t *testing.T) {
	s := stopped(8)
	victim, thief := s.workers[1], s.workers[0] // partners at level 0
	for i := 0; i < 8; i++ {
		victim.push(Solo(func(*Ctx) {}))
	}
	if !thief.stealTasks() {
		t.Fatal("steal failed")
	}
	// Level-0 steal: min(size/2, 2^0) = 1 task, executed directly.
	if got := thief.st[stats.TasksStolen].Load(); got != 1 {
		t.Fatalf("stole %d tasks, want 1", got)
	}
	if victim.queues[0].Size() != 7 {
		t.Fatalf("victim keeps %d", victim.queues[0].Size())
	}
	if thief.st[stats.TasksRun].Load() != 1 {
		t.Fatal("last stolen task must run immediately")
	}
}

func TestWBStealAmountGrowsWithLevel(t *testing.T) {
	s := stopped(8)
	victim, thief := s.workers[4], s.workers[0] // partners at level 2
	for i := 0; i < 32; i++ {
		victim.push(Solo(func(*Ctx) {}))
	}
	if !thief.stealTasks() {
		t.Fatal("steal failed")
	}
	// Level-2 steal: min(32/2, 2^2) = 4 tasks.
	if got := thief.st[stats.TasksStolen].Load(); got != 4 {
		t.Fatalf("stole %d tasks, want 4", got)
	}
}

func TestWBStealRegistersForTeamInstead(t *testing.T) {
	s := stopped(8)
	coord, thief := s.workers[0], s.workers[1]
	coord.push(Func(8, func(*Ctx) {}))
	coord.regw.Store(reg.R{Req: 8, Acq: 1, Team: 1, Epoch: 0})
	if !thief.stealTasks() {
		t.Fatal("stealTasks found nothing")
	}
	if thief.coordp() != coord {
		t.Fatal("thief should have registered, not stolen")
	}
	if coord.queues[3].Size() != 1 {
		t.Fatal("the team task must not be stolen by a block member")
	}
}

func TestWBSameTeamStealForbidden(t *testing.T) {
	s := stopped(8)
	victim, thief := s.workers[1], s.workers[0]
	victim.push(Func(2, func(*Ctx) {})) // team {0,1} would contain the thief
	if thief.stealTasks() {
		// Only registration would be legitimate, but victim is not
		// coordinating (Req=1 since push does not advertise).
		t.Fatal("thief stole a task whose team contains it")
	}
	if victim.queues[1].Size() != 1 {
		t.Fatal("task must remain with the victim")
	}
}

func TestWBStealTeamTaskFromOutsideBlock(t *testing.T) {
	s := stopped(8)
	victim, thief := s.workers[0], s.workers[4] // different 4-blocks
	victim.push(Func(4, func(*Ctx) {}))
	if !thief.stealTasks() {
		t.Fatal("outside thief must be able to steal the team task")
	}
	if thief.queues[2].Size() != 1 {
		t.Fatal("stolen team task must be enqueued, not run directly")
	}
}

// TestWBWorkVisibleMatchesStealRound holds the sleeper's re-check to the
// steal round it stands in for: with one task of any width on any worker, or
// any advertisement at a coordinator whose block fits, a worker sees work
// exactly when a steal round obtains some. Narrower is a lost wake-up (a
// hang), wider a worker that never parks.
func TestWBWorkVisibleMatchesStealRound(t *testing.T) {
	check := func(s *Scheduler, w *worker, what string) {
		t.Helper()
		if vis, got := w.workVisible(), w.stealTasks(); vis != got {
			t.Fatalf("P = %d, worker %d, %s: workVisible %v, steal round %v", s.topo.P, w.id, what, vis, got)
		}
	}
	for p := 1; p <= 9; p++ {
		for thief := 0; thief < p; thief++ {
			for victim := 0; victim < p; victim++ {
				for r := 1; r <= p; r *= 2 {
					s := stopped(p)
					s.workers[victim].push(Func(r, func(*Ctx) {}))
					check(s, s.workers[thief], fmt.Sprintf("r = %d task on worker %d", r, victim))
				}
			}
			for c := 0; c < p; c++ {
				for need := 2; topo.BlockFits(c, need, p); need *= 2 {
					for acq := 1; acq <= need; acq++ {
						s := stopped(p)
						s.workers[c].regw.Store(reg.R{Req: uint16(need), Acq: uint16(acq), Team: 1})
						check(s, s.workers[thief], fmt.Sprintf("worker %d advertising %d/%d", c, acq, need))
					}
				}
			}
		}
	}
}

// TestWBEveryStealIsTraced pins that every steal, whichever thief makes it,
// is counted and traced once: the steal inside TaskGroup.Wait too.
func TestWBEveryStealIsTraced(t *testing.T) {
	s := build(Options{P: 2})
	s.StartTrace()
	for i := 0; i < 4; i++ {
		s.workers[1].push(Solo(func(*Ctx) {}))
	}
	if !s.workers[0].stealSoloOnly() {
		t.Fatal("nothing stolen from the partner's four tasks")
	}
	var events int64
	for _, e := range s.TraceSnapshot().Events {
		if e.Kind == trace.EvSteal {
			events++
		}
	}
	if steals := s.Stats()[stats.Steals]; events != steals {
		t.Fatalf("%d EvSteal events for %d steals", events, steals)
	}
}

// TestWBEveryTransitionIsTraced drives every transition of the registration
// word through the code that makes it, and pins that each successful CAS
// records exactly one event whose X and Arg are the acquired count and the
// packed word it wrote, and that a lost CAS records none.
func TestWBEveryTransitionIsTraced(t *testing.T) {
	s := build(Options{P: 4})
	s.StartTrace()
	w := s.workers
	regKinds := map[trace.Kind]bool{
		trace.EvTeamFixed: true, trace.EvRegister: true, trace.EvDeregister: true, trace.EvShrink: true,
		trace.EvDisband: true, trace.EvPreempt: true, trace.EvConflictYield: true, trace.EvGrowAdvertise: true,
	}
	type write struct {
		kind  trace.Kind
		owner int // the worker whose word was written
		word  reg.R
	}
	seen := 0
	step := func(name string, do func(), want ...write) {
		t.Helper()
		do()
		var got []trace.Event
		for _, e := range s.TraceSnapshot().Events {
			if regKinds[e.Kind] {
				got = append(got, e)
			}
		}
		got, seen = got[seen:], len(got)
		if len(got) != len(want) {
			t.Fatalf("%s: %d registration events, want %d\n%s", name, len(got), len(want), s.TraceDump())
		}
		now := map[int]reg.R{}
		for i, e := range got {
			owner := e.Ring
			if e.Kind == trace.EvRegister || e.Kind == trace.EvDeregister {
				owner = e.Other
			}
			wt := want[i]
			if e.Kind != wt.kind || owner != wt.owner || e.Arg != reg.Pack(wt.word) || e.X != uint32(wt.word.Acq) {
				t.Fatalf("%s: event %d is %v on worker %d's word, X %d, Arg %#x; want %v writing %v to worker %d's",
					name, i, e.Kind, owner, e.X, e.Arg, wt.kind, wt.word, wt.owner)
			}
			now[owner] = wt.word
		}
		for id, word := range now {
			if got := w[id].regw.Load(); got != word {
				t.Fatalf("%s: worker %d's word is %v, its last event says %v", name, id, got, word)
			}
		}
	}
	noop := func(*Ctx) {}

	step("grow-advertise, conflict-yield and register (coordinate)", func() {
		w[0].regw.Store(reg.R{Req: 2, Acq: 1, Team: 1})
		w[1].push(Func(2, noop))
		w[1].coordinate() // advertises 2, meets worker 0 advertising 2: the smaller id wins
	},
		write{trace.EvGrowAdvertise, 1, reg.R{Req: 2, Acq: 1, Team: 1}},
		write{trace.EvConflictYield, 1, reg.R{Req: 1, Acq: 1, Team: 1, Epoch: 1}},
		write{trace.EvRegister, 0, reg.R{Req: 2, Acq: 2, Team: 1}})
	step("fix (gather)", func() { w[0].gather(1, 2) },
		write{trace.EvTeamFixed, 0, reg.R{Req: 2, Acq: 2, Team: 2}})
	failures := w[0].st[stats.CASFailures].Load()
	step("lost CAS", func() {
		if w[0].cas(w[0], reg.R{Req: 2, Acq: 2, Team: 1}, reg.Idle(1), trace.EvDisband, 0) {
			t.Fatal("a CAS from a stale word succeeded")
		}
	})
	if w[0].st[stats.CASFailures].Load() != failures+1 {
		t.Fatal("the lost CAS was not counted")
	}
	step("shrink (coordinate)", func() {
		w[0].push(Solo(noop))
		w[0].coordinate()
	},
		write{trace.EvShrink, 0, reg.R{Req: 1, Acq: 1, Team: 1, Epoch: 1}})
	step("shrink-advertise, conflict-yield and register (coordinate)", func() {
		w[2].regw.Store(reg.R{Req: 2, Acq: 1, Team: 1})
		w[3].regw.Store(reg.R{Req: 4, Acq: 1, Team: 1, Epoch: 5})
		w[3].push(Func(2, noop))
		w[3].coordinate()
	},
		write{trace.EvGrowAdvertise, 3, reg.R{Req: 2, Acq: 1, Team: 1, Epoch: 6}},
		write{trace.EvConflictYield, 3, reg.R{Req: 1, Acq: 1, Team: 1, Epoch: 7}},
		write{trace.EvRegister, 2, reg.R{Req: 2, Acq: 2, Team: 1}})
	step("deregister (leave)", func() {
		if !w[3].leave(w[2]) {
			t.Fatal("a registrant outside any fixed team could not leave")
		}
	},
		write{trace.EvDeregister, 2, reg.R{Req: 2, Acq: 1, Team: 1}})
	step("solo-path revoke (coordinate)", func() {
		w[2].push(Solo(noop))
		w[2].coordinate()
	},
		write{trace.EvPreempt, 2, reg.R{Req: 1, Acq: 1, Team: 1, Epoch: 1}})
	step("preempt (gather)", func() {
		w[0].regw.Store(reg.R{Req: 4, Acq: 3, Team: 2, Epoch: 1})
		w[0].push(Func(2, noop))
		w[0].gather(2, 4)
	},
		write{trace.EvPreempt, 0, reg.R{Req: 2, Acq: 2, Team: 2, Epoch: 2}})
	step("disband (coordinate → dropCoordination)", func() {
		w[0].freeNode(w[0].queues[1].PopBottom())
		w[0].coordinate()
	},
		write{trace.EvDisband, 0, reg.R{Req: 1, Acq: 1, Team: 1, Epoch: 3}})
}

func TestWBConflictSmallerIDWins(t *testing.T) {
	s := stopped(2)
	a, b := s.workers[0], s.workers[1]
	a.regw.Store(reg.R{Req: 2, Acq: 1, Team: 1, Epoch: 0})
	b.regw.Store(reg.R{Req: 2, Acq: 1, Team: 1, Epoch: 0})
	// b polls its partners while coordinating: a has the same size and the
	// smaller id, so b must yield and register with a.
	b.pollPartners(b, 2)
	if b.coordp() != a {
		t.Fatalf("b should have yielded to a; coord=%d", b.coordp().id)
	}
	if r := b.regw.Load(); r.Req != 1 || r.Epoch != 1 {
		t.Fatalf("loser must reset its advertisement: %v", r)
	}
	if r := a.regw.Load(); r.Acq != 2 {
		t.Fatalf("winner must have gained the loser: %v", r)
	}
	// The winner polling sees no conflict (it wins) and stays.
	a.pollPartners(a, 2)
	if a.coordp() != a {
		t.Fatal("winner must not yield")
	}
}

func TestWBConflictSmallerTaskWins(t *testing.T) {
	s := stopped(4)
	big, small := s.workers[0], s.workers[1]
	big.regw.Store(reg.R{Req: 4, Acq: 1, Team: 1, Epoch: 0})
	small.regw.Store(reg.R{Req: 2, Acq: 1, Team: 1, Epoch: 0})
	// big needs worker 1's block; worker 1 coordinates a smaller task that
	// needs big (overlap(1, 0, 2)): the smaller task wins even though its
	// coordinator id is larger.
	big.pollPartners(big, 4)
	if big.coordp() != small {
		t.Fatalf("big must yield to the smaller task; coord=%d", big.coordp().id)
	}
}

func TestWBPollHelpsDrainSmallTasks(t *testing.T) {
	s := stopped(8)
	coord, busy := s.workers[0], s.workers[1]
	coord.regw.Store(reg.R{Req: 8, Acq: 1, Team: 1, Epoch: 0})
	for i := 0; i < 6; i++ {
		busy.push(Solo(func(*Ctx) {}))
	}
	// The gathering coordinator helps the busy partner empty its queue.
	coord.pollPartners(coord, 8)
	if coord.st[stats.TasksStolen].Load() == 0 {
		t.Fatal("coordinator did not help-steal from the busy partner")
	}
	if coord.queues[0].Empty() {
		t.Fatal("help-stolen tasks must be enqueued locally")
	}
}

func TestWBGatherPreemptedBySmallerTask(t *testing.T) {
	s := stopped(8)
	w := s.workers[0]
	w.push(Func(8, func(*Ctx) {}))
	w.regw.Store(reg.R{Req: 8, Acq: 3, Team: 1, Epoch: 2})
	w.push(Solo(func(*Ctx) {}))
	if pl := w.preemptLevel(w.regw.Load(), 3); pl != 0 {
		t.Fatalf("preempt level = %d, want 0", pl)
	}
	// With a persistent team of 2, a level-0 task must NOT preempt
	// (the team keeps working its own level first).
	w.regw.Store(reg.R{Req: 8, Acq: 3, Team: 2, Epoch: 2})
	if pl := w.preemptLevel(w.regw.Load(), 3); pl != -1 {
		t.Fatalf("preempt level = %d, want -1 (below team level)", pl)
	}
	// A task at the team's own level does preempt the gathering.
	w.push(Func(2, func(*Ctx) {}))
	if pl := w.preemptLevel(w.regw.Load(), 3); pl != 1 {
		t.Fatalf("preempt level = %d, want 1", pl)
	}
}

func TestWBDropCoordinationRevokes(t *testing.T) {
	s := stopped(4)
	w := s.workers[0]
	w.regw.Store(reg.R{Req: 4, Acq: 3, Team: 2, Epoch: 9})
	w.dropCoordination(w.regw.Load())
	r := w.regw.Load()
	if r != (reg.R{Req: 1, Acq: 1, Team: 1, Epoch: 10}) {
		t.Fatalf("after drop: %v", r)
	}
	// Dropping an idle registration is a no-op (no epoch bump).
	w.dropCoordination(w.regw.Load())
	if got := w.regw.Load().Epoch; got != 10 {
		t.Fatalf("idle drop bumped epoch to %d", got)
	}
}

func TestWBShrinkAdvertisementRevokesOutsiders(t *testing.T) {
	// Re-advertising a smaller requirement must reset a to t and bump N
	// (the §3 rule whose omission caused the development-log deadlock).
	s := stopped(8)
	w := s.workers[0]
	w.push(Func(2, func(*Ctx) {}))
	w.push(Func(8, func(*Ctx) {})) // level 3 advertised first? No: choose picks level 1
	w.regw.Store(reg.R{Req: 8, Acq: 5, Team: 1, Epoch: 0})
	// coordinate() would now pick level 1 (the smaller task): simulate its
	// advertisement transition.
	if r := w.regw.Load(); !w.cas(w, r, r.Advertise(2), trace.EvGrowAdvertise, w.id) {
		t.Fatal("CAS")
	}
	got := w.regw.Load()
	if got.Acq != 1 || got.Epoch != 1 {
		t.Fatalf("shrinking advertisement must revoke: %v", got)
	}
}
