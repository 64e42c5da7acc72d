package core

import (
	"testing"

	"repro/internal/reg"
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

func (w *worker) push(t Task) { w.spawn(t, w.sched.root) } // test helper

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
	if !thief.deregister(coord) {
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
	if member.deregister(coord) {
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
	if !member.deregister(coord) {
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
	exec := &teamExec{task: n.task, teamSize: 2, width: 2, coordID: 0, gen: s.nextGen()}
	exec.started.Store(1)
	exec.done.Store(2)
	exec.barrier.Init(1) // member-side run only in this test
	coord.cur.Store(exec)

	member.memberStep()
	if !ran {
		t.Fatal("member did not pick up the published execution")
	}
	if exec.started.Load() != 0 || exec.done.Load() != 1 {
		t.Fatalf("countdowns: started=%d done=%d", exec.started.Load(), exec.done.Load())
	}
	if !member.teamed || member.lastGen != exec.gen {
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
	if got := thief.st.TasksStolen.Load(); got != 1 {
		t.Fatalf("stole %d tasks, want 1", got)
	}
	if victim.queues[0].Size() != 7 {
		t.Fatalf("victim keeps %d", victim.queues[0].Size())
	}
	if thief.st.TasksRun.Load() != 1 {
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
	if got := thief.st.TasksStolen.Load(); got != 4 {
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
	if coord.st.TasksStolen.Load() == 0 {
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
	r := w.regw.Load()
	nr := r
	nr.Req = 2
	nr.Acq = r.Team
	nr.Epoch = r.Epoch + 1
	if !w.regw.CAS(r, nr) {
		t.Fatal("CAS")
	}
	got := w.regw.Load()
	if got.Acq != 1 || got.Epoch != 1 {
		t.Fatalf("shrinking advertisement must revoke: %v", got)
	}
}
