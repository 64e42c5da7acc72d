package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/reg"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Tests of the waits inside a fixed team (teamwait.go): one per waker, each
// with the sleeper seen parked — its slot announced under the wait's tag —
// before a latch lets the waker go, so the release is the waker's
// claim-and-signal and not a lucky spin round. No timer runs in these waits:
// a missed waker is a hang, which the deadlines turn into a state dump.

const waitDeadline = 30 * time.Second

// waitTag blocks until w is announced on its slot as a sleeper of kind tag.
func waitTag(t *testing.T, s *Scheduler, w *worker, tag uint32) {
	t.Helper()
	waitFor(t, s, "worker announced on its slot", func() bool { return w.slot.Tag() == tag })
}

// waitFor polls cond under the deadline.
func waitFor(t *testing.T, s *Scheduler, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(waitDeadline); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for: %s\n%s", what, s.DumpState())
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// heldTeam runs, on a P = 2 scheduler, a root task that spawns the two-member
// team task first and then next (nil: nothing) on the same worker, which
// therefore coordinates both with one kept team. The coordinator's share of
// first blocks until the returned release is called. It returns once the
// member has finished its share and is parked in memberStep waiting for its
// coordinator. A test that fails before it releases the coordinator is
// released by a cleanup, which runs before the Shutdown cleanup registered
// earlier (cleanups run last in, first out), so the failure does not hang it.
func heldTeam(t *testing.T, s *Scheduler, next Task) (g *Group, coord, member *worker, release func()) {
	t.Helper()
	hold := make(chan struct{})
	release = sync.OnceFunc(func() { close(hold) })
	t.Cleanup(release)
	var cid atomic.Int32
	cid.Store(-1)
	first := Func(2, func(ctx *Ctx) {
		if ctx.WorkerID() == int(cid.Load()) {
			<-hold
		}
	})
	g = s.NewGroup()
	g.Spawn(Solo(func(ctx *Ctx) {
		cid.Store(int32(ctx.WorkerID()))
		if next != nil {
			ctx.Spawn(next) // popped second: the queue's bottom is the last push
		}
		ctx.Spawn(first)
	}))
	waitFor(t, s, "root task ran", func() bool { return cid.Load() >= 0 })
	coord, member = s.workers[cid.Load()], s.workers[1-cid.Load()]
	waitTag(t, s, member, slotTeamWait)
	return g, coord, member, release
}

// TestMemberWokenByPublish: the coordinator's cur.Store of the next execution
// wakes the member of the kept team that parked waiting for it.
func TestMemberWokenByPublish(t *testing.T) {
	s := newTest(t, Options{P: 2})
	var ran atomic.Int32
	g, _, member, release := heldTeam(t, s, Func(2, func(*Ctx) { ran.Add(1) }))
	if dump := s.DumpState(); !strings.Contains(dump, " TEAMWAIT") {
		t.Fatalf("DumpState does not mark the parked member:\n%s", dump)
	}
	before := wakesBy(s, wakeTeamWait)
	release()
	runWithDeadline(t, s, waitDeadline, g.Wait)
	if ran.Load() != 2 {
		t.Fatalf("second team task ran on %d workers, want 2", ran.Load())
	}
	if wakesBy(s, wakeTeamWait) == before {
		t.Fatal("the publish did not wake the parked member")
	}
	if member.st[stats.Parks].Load() == 0 {
		t.Fatal("Parks does not count the member's team park")
	}
}

// TestCountdownWokenByPickupAndLastParticipant: the coordinator parks in
// countdown until every other worker of the block is done with the
// execution, and the last one wakes it — a participant when its share
// returns, a surplus member (Refinement 2) at pickup. A participant's pickup
// wakes nobody.
func TestCountdownWokenByPickupAndLastParticipant(t *testing.T) {
	t.Run("participant", func(t *testing.T) {
		holdPickup, holdPart, inPart := make(chan struct{}), make(chan struct{}), make(chan struct{})
		var mid atomic.Int32
		mid.Store(-1)
		var s *Scheduler
		s = build(Options{P: 2, Fault: func(p FaultPoint, id int) {
			// Stall the member between its registration and its pickup.
			if p == FaultWorkerLoop && id == int(mid.Load()) && s.workers[id].coordp().id != id {
				<-holdPickup
			}
		}})
		topo.EnsureGOMAXPROCS(2)
		s.start()
		t.Cleanup(s.Shutdown)

		g := s.NewGroup()
		g.Spawn(Solo(func(ctx *Ctx) {
			mid.Store(int32(1 - ctx.WorkerID()))
			ctx.Spawn(Func(2, func(ctx *Ctx) {
				if ctx.WorkerID() == int(mid.Load()) {
					close(inPart)
					<-holdPart
				}
			}))
		}))
		waitFor(t, s, "root task ran", func() bool { return mid.Load() >= 0 })
		coord := s.workers[1-mid.Load()]

		waitTag(t, s, coord, slotTeamWait)
		exec := &coord.exec
		if got := exec.pending.Load(); got != 1 {
			t.Fatalf("coordinator parked with pending = %d, want 1", got)
		}
		base := wakesBy(s, wakeTeamWait)
		close(holdPickup)
		runWithDeadline(t, s, waitDeadline, func() { <-inPart })
		if coord.slot.Tag() != slotTeamWait || exec.pending.Load() != 1 || wakesBy(s, wakeTeamWait) != base {
			t.Fatalf("the member's pickup disturbed the parked coordinator\n%s", s.DumpState())
		}
		close(holdPart)
		runWithDeadline(t, s, waitDeadline, g.Wait)
		if got := wakesBy(s, wakeTeamWait); got < base+1 {
			t.Fatalf("team-wait wake-ups = %d, want ≥ %d: the last participant did not wake the coordinator", got, base+1)
		}
	})
	t.Run("surplus member", func(t *testing.T) {
		// A width-3 task on the fixed 4-team of coordinator 0, played by
		// hand on an unstarted scheduler: workers 1 and 2 run their shares,
		// worker 3 only picks up.
		s := stopped(4)
		coord := s.workers[0]
		coord.regw.Store(reg.R{Req: 4, Acq: 4, Team: 4})
		var ran atomic.Int32
		exec := &coord.exec
		exec.task, exec.teamSize, exec.width = Func(3, func(*Ctx) { ran.Add(1) }), 4, 3
		exec.pending.Store(3)
		exec.barrier.Init(3)
		gen := s.nextGen()
		coord.cur.Store(pubWord(gen, 2))
		coord.slot.Arm(slotTeamWait) // the coordinator announced in countdown
		for _, id := range []int{1, 2} {
			s.workers[id].coord.Store(coord)
			s.workers[id].memberStep()
		}
		if exec.pending.Load() != 1 || ran.Load() != 2 || coord.slot.Tag() != slotTeamWait || wakesBy(s, wakeTeamWait) != 0 {
			t.Fatalf("after both shares: pending = %d, ran = %d, coordinator tag = %d, wake-ups = %d; want 1, 2, parked, 0",
				exec.pending.Load(), ran.Load(), coord.slot.Tag(), wakesBy(s, wakeTeamWait))
		}
		surplus := s.workers[3]
		surplus.coord.Store(coord)
		surplus.memberStep()
		if surplus.lastGen != gen || ran.Load() != 2 {
			t.Fatalf("surplus member: lastGen = %d (exec %d), ran = %d; want a pickup without a share", surplus.lastGen, gen, ran.Load())
		}
		if exec.pending.Load() != 0 || coord.slot.Tag() != 0 || wakesBy(s, wakeTeamWait) != 1 {
			t.Fatalf("after the surplus pickup: pending = %d, coordinator tag = %d, wake-ups = %d; want 0, claimed, 1",
				exec.pending.Load(), coord.slot.Tag(), wakesBy(s, wakeTeamWait))
		}
		runWithDeadline(t, s, waitDeadline, func() { coord.slot.Sleep() }) // the claim's token is there
	})
}

// TestMemberWokenByTeamEndingTransition drives each owner-side transition of
// the registration word that can end a team — all of them go through cas
// — against a member that is really parked in memberStep. The test goroutine
// is the coordinator; the members run memberStep until they are free again.
func TestMemberWokenByTeamEndingTransition(t *testing.T) {
	noop := func(*Ctx) {}
	cases := []struct {
		name          string
		coord, member int
		extra         []int // further members to run, not asserted on
		reg           reg.R // the coordinator's word: a fixed team containing member
		do            func(t *testing.T, s *Scheduler, c, m *worker)
		leaves        bool
	}{
		{"disband (dropCoordination)", 0, 1, nil, reg.R{Req: 2, Acq: 2, Team: 2}, func(t *testing.T, s *Scheduler, c, m *worker) {
			c.dropCoordination(c.regw.Load())
		}, true},
		{"shrink (coordinate)", 0, 2, []int{1}, reg.R{Req: 4, Acq: 4, Team: 4}, func(t *testing.T, s *Scheduler, c, m *worker) {
			// The 2-task runs on the shrunk team {0, 1}; worker 0's share
			// returns only once worker 2 is free, so it is the shrink that
			// released it, not the disband that follows the task.
			c.push(Func(2, func(ctx *Ctx) {
				if ctx.WorkerID() == 0 {
					waitFor(t, s, "member left at the shrink", func() bool { return m.coordp() == m })
				}
			}))
			c.coordinate()
		}, true},
		{"preempt (gather) keeps the team", 0, 1, nil, reg.R{Req: 4, Acq: 2, Team: 2}, func(t *testing.T, s *Scheduler, c, m *worker) {
			c.push(Func(2, noop)) // a smaller task arrives while gathering for 4
			c.gather(2, 4)
			if r := c.regw.Load(); r != (reg.R{Req: 2, Acq: 2, Team: 2, Epoch: 1}) {
				t.Fatalf("after the preempt: reg = %v", r)
			}
		}, false},
		{"conflict-yield (switchCoordinator)", 2, 3, nil, reg.R{Req: 4, Acq: 2, Team: 2}, func(t *testing.T, s *Scheduler, c, m *worker) {
			xc := s.workers[0] // same 4-block, smaller id: wins (Lemma 3)
			xc.regw.Store(reg.R{Req: 4, Acq: 1, Team: 1})
			c.switchCoordinator(c, xc)
			if c.coordp() != xc {
				t.Fatal("the yielding coordinator did not register with the winner")
			}
		}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := stopped(4)
			s.StartTrace()
			coord, member := s.workers[c.coord], s.workers[c.member]
			coord.regw.Store(c.reg)
			var running atomic.Int32
			for _, id := range append([]int{c.member}, c.extra...) {
				m := s.workers[id]
				m.coord.Store(coord)
				m.teamed = true
				running.Add(1)
				go func() {
					defer running.Add(-1)
					for m.coordp() != m {
						m.memberStep()
					}
				}()
			}
			waitTag(t, s, member, slotTeamWait)
			before := wakesBy(s, wakeTeamWait)
			runWithDeadline(t, s, waitDeadline, func() { c.do(t, s, coord, member) })
			if !c.leaves {
				time.Sleep(5 * time.Millisecond)
				if member.slot.Tag() != slotTeamWait || wakesBy(s, wakeTeamWait) != before {
					t.Fatalf("a transition that keeps the team disturbed its parked member\n%s", s.DumpState())
				}
				coord.dropCoordination(coord.regw.Load())
			}
			waitFor(t, s, "members left", func() bool { return running.Load() == 0 })
			if wakesBy(s, wakeTeamWait) == before {
				t.Fatal("the member left without a wake-up")
			}
			left := false
			for _, e := range s.TraceSnapshot().Events {
				left = left || (e.Kind == trace.EvLeaveTeam && e.Ring == c.member && e.Other == c.coord)
			}
			if !left {
				t.Fatalf("no EvLeaveTeam by worker %d:\n%s", c.member, s.TraceDump())
			}
		})
	}
}

// TestWBCasTeamWakesLeavers: cas wakes exactly the parked members of the
// old block that are outside the new one, and nobody when the CAS fails.
func TestWBCasTeamWakesLeavers(t *testing.T) {
	team4 := reg.R{Req: 4, Acq: 4, Team: 4}
	cases := []struct {
		name string
		old  reg.R // what the caller read; the word itself holds team4
		new  reg.R
		ok   bool
		want []int
	}{
		{"disband", team4, reg.Idle(1), true, []int{4, 6, 7}},
		{"shrink to the coordinator's pair", team4, reg.R{Req: 2, Acq: 2, Team: 2, Epoch: 1}, true, []int{6, 7}},
		{"preempt keeps the team", team4, reg.R{Req: 4, Acq: 4, Team: 4, Epoch: 1}, true, nil},
		{"lost CAS", reg.R{Req: 4, Acq: 3, Team: 4}, reg.Idle(1), false, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := stopped(8)
			coord := s.workers[5]
			coord.regw.Store(team4)
			asleep := []int{0, 4, 6, 7} // 0 sleeps in somebody else's team
			for _, id := range asleep {
				s.workers[id].slot.Arm(slotTeamWait)
			}
			s.workers[3].slot.Arm(slotIdle) // and 3 is idle: not this event's sleeper either
			if got := coord.cas(coord, c.old, c.new, trace.EvDisband, coord.id); got != c.ok {
				t.Fatalf("cas = %v, want %v", got, c.ok)
			}
			var woke []int
			for _, id := range asleep {
				if w := s.workers[id]; w.slot.Tag() == 0 {
					runWithDeadline(t, s, waitDeadline, func() { w.slot.Sleep() }) // claimed: its token is there
					woke = append(woke, id)
				}
			}
			if fmt.Sprint(woke) != fmt.Sprint(c.want) {
				t.Fatalf("woke %v, want %v", woke, c.want)
			}
			if got := wakesBy(s, wakeTeamWait); got != int64(len(c.want)) {
				t.Fatalf("team-wait wake-ups counted = %d, want %d", got, len(c.want))
			}
			if s.parked() != 0 || s.park.searching.Load() != 0 {
				t.Fatal("a team wake-up touched the idle protocol's counts")
			}
		})
	}
}

// TestBarrierLastArriverWakesParkedTeam: Ctx.Barrier over many phases of one
// r = P task, the slow member changing every phase and arriving only once
// the other three are parked on their workers' slots.
func TestBarrierLastArriverWakesParkedTeam(t *testing.T) {
	const p, phases = 4, 300
	s := newTest(t, Options{P: p})
	var arrivals atomic.Int64
	marked := false
	task := Func(p, func(ctx *Ctx) {
		for ph := 0; ph < phases; ph++ {
			if ph%p == ctx.LocalID() {
				waitFor(t, s, "the other members parked in the barrier", func() bool {
					n := 0
					for _, w := range s.workers {
						if w.slot.Tag() == slotBarrier {
							n++
						}
					}
					return n == p-1
				})
				if ph == 0 {
					marked = strings.Count(s.DumpState(), " BARRIER") == p-1
				}
			}
			arrivals.Add(1)
			ctx.Barrier()
			if got := arrivals.Load(); got < int64((ph+1)*p) {
				t.Errorf("phase %d: member %d released after %d arrivals", ph, ctx.LocalID(), got)
				return
			}
		}
	})
	runWithDeadline(t, s, 2*waitDeadline, func() { s.Run(task) })
	if !marked {
		t.Error("DumpState did not mark the three parked members BARRIER")
	}
	// A sleeper caught between its announcement and its re-check withdraws
	// by itself, so not every one of the (p−1)·phases parks ends in a wake.
	if got := wakesBy(s, wakeBarrier); got < phases || got > (p-1)*phases {
		t.Errorf("barrier wake-ups = %d, want most of %d", got, (p-1)*phases)
	}
	if st := s.Stats(); st[stats.Parks] < phases {
		t.Errorf("Parks = %d: the barrier's parks are not counted", st[stats.Parks])
	}
}

// TestShutdownWithTeamParked: Shutdown while a member is parked inside the
// team. In memberStep Shutdown's claim of its slot releases it at once; in a barrier it
// stays until the missing participant arrives (a released barrier would let
// the task run on with its phase broken) and Shutdown waits for that — and
// the participant does arrive: a worker does not leave its loop over a
// published execution of its team that it has not picked up.
func TestShutdownWithTeamParked(t *testing.T) {
	t.Run("memberStep", func(t *testing.T) {
		s := New(Options{P: 2})
		_, _, member, release := heldTeam(t, s, nil)
		down := make(chan struct{})
		go func() { s.Shutdown(); close(down) }()
		waitFor(t, s, "Shutdown released the parked member", func() bool { return s.done.Load() && member.slot.Tag() == 0 })
		select {
		case <-down:
			t.Fatal("Shutdown returned while the coordinator was still inside its task")
		default:
		}
		release()
		runWithDeadline(t, s, waitDeadline, func() { <-down })
	})
	t.Run("barrier", func(t *testing.T) {
		s := New(Options{P: 2})
		hold := make(chan struct{})
		var after atomic.Int32
		s.NewGroup().Spawn(Func(2, func(ctx *Ctx) {
			if ctx.LocalID() == 0 {
				<-hold
			}
			ctx.Barrier()
			after.Add(1)
		}))
		waitTag(t, s, s.workers[1], slotBarrier)
		down := make(chan struct{})
		go func() { s.Shutdown(); close(down) }()
		waitFor(t, s, "Shutdown began", s.done.Load)
		time.Sleep(2 * time.Millisecond)
		if s.workers[1].slot.Tag() != slotBarrier || after.Load() != 0 {
			t.Fatal("Shutdown broke a barrier that was still missing a participant")
		}
		close(hold)
		runWithDeadline(t, s, waitDeadline, func() { <-down })
		if after.Load() != 2 {
			t.Fatalf("%d members got through the barrier, want 2", after.Load())
		}
	})
	// The schedule that used to hang: the coordinator has published the
	// execution and is parked in its barrier, the member has not picked it up
	// — it is held between announcing its team wait and re-checking it —
	// and Shutdown lands. Released, the member finds done set: it must run
	// its share before it leaves, or the barrier never opens.
	t.Run("barrier, execution not yet picked up", func(t *testing.T) {
		latch := make(chan struct{})
		var s *Scheduler
		s = build(Options{P: 2, Fault: func(p FaultPoint, id int) {
			if p != FaultTeamPark {
				return
			}
			// The member's wait for its second execution: in memberStep (a
			// barrier announces slotBarrier), the first one picked up.
			if w := s.workers[id]; w.coordp() != w && w.slot.Tag() == slotTeamWait && w.lastGen != 0 {
				<-latch
			}
		}})
		topo.EnsureGOMAXPROCS(2)
		s.start()
		var after atomic.Int32
		_, coord, _, release := heldTeam(t, s, Func(2, func(ctx *Ctx) {
			ctx.Barrier()
			after.Add(1)
		}))
		release() // the coordinator ends the first task and publishes the second
		waitTag(t, s, coord, slotBarrier)
		if coord.cur.Load() == 0 || coord.exec.pending.Load() != 1 {
			t.Fatalf("coordinator in the barrier with word %#x, pending %d; want one pickup outstanding",
				coord.cur.Load(), coord.exec.pending.Load())
		}
		down := make(chan struct{})
		go func() { s.Shutdown(); close(down) }()
		waitFor(t, s, "Shutdown began", s.done.Load)
		close(latch)
		runWithDeadline(t, s, waitDeadline, func() { <-down })
		if after.Load() != 2 {
			t.Fatalf("%d members got through the barrier, want 2", after.Load())
		}
	})
}

// recordProbe is one team task of TestTeamRecordReuse: every member writes
// its slot, passes the barrier and reads every other member's, and local
// id 0 then spawns the chain's next task.
type recordProbe struct {
	width int
	ran   [4]atomic.Int32 // runs per local id
	slots [4]int          // written before the barrier, read after it
	next  func(*Ctx)      // spawns the chain's next task, or nil
	bad   *atomic.Int64
}

func (p *recordProbe) Threads() int { return p.width }

func (p *recordProbe) Run(ctx *Ctx) {
	lid := ctx.LocalID()
	if ctx.TeamSize() != p.width || lid >= p.width || p.ran[lid].Add(1) != 1 {
		p.bad.Add(1) // a stale record: wrong width, or a local id run twice
		return
	}
	p.slots[lid] = lid + 1
	ctx.Barrier()
	for i := 0; i < p.width; i++ {
		if p.slots[i] != i+1 {
			p.bad.Add(1)
		}
	}
	ctx.Barrier() // nobody reads the slots after this
	if lid == 0 && p.next != nil {
		p.next(ctx)
	}
}

// TestTeamRecordReuse: each coordinator publishes every team task in the
// one record embedded in its worker, so a member that reads it outside its
// pickup-to-tick window, or a coordinator that rewrites it before the
// countdown reaches zero, runs another execution's task or width. Two
// chains of team tasks of widths 2, 3 and 4 run back to back on P = 4: each
// task's local id 0 spawns the next one, so its worker coordinates it —
// on the kept team when the size matches, after a shrink when it is
// smaller, with a surplus member at width 3 — while the other chain
// competes for the same workers. Every task must run exactly once per
// member, with its own width. Run it under -race.
func TestTeamRecordReuse(t *testing.T) {
	s := newTest(t, Options{P: 4})
	const chains, length = 2, 300
	widths := [...]int{2, 3, 4, 4, 3, 2, 2, 4, 3}
	var bad atomic.Int64
	probes := make([][]*recordProbe, chains)
	for c := range probes {
		probes[c] = make([]*recordProbe, length)
		for i := range probes[c] {
			probes[c][i] = &recordProbe{width: widths[(i+c)%len(widths)], bad: &bad}
		}
		for i := 0; i+1 < length; i++ {
			nx := probes[c][i+1]
			probes[c][i].next = func(ctx *Ctx) { ctx.Spawn(nx) }
		}
	}
	g := s.NewGroup()
	for c := range probes {
		g.Spawn(probes[c][0])
	}
	runWithDeadline(t, s, waitDeadline, g.Wait)
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d member runs saw a stale record", n)
	}
	for c := range probes {
		for i, p := range probes[c] {
			for lid := range p.width {
				if n := p.ran[lid].Load(); n != 1 {
					t.Fatalf("chain %d task %d (width %d): local id %d ran %d times, want once", c, i, p.width, lid, n)
				}
			}
		}
	}
}
