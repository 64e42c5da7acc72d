package core

import (
	"repro/internal/backoff"
	"repro/internal/topo"
)

// The waits between team-fix and disband. Each waits for one event that one
// named worker produces, so after the spin and yield rounds the waiter parks
// on its wake slot — park.go's, under a tag of its own — and the producer
// wakes it: no timer runs inside a team. README.md (Parking and wake-up) has
// the sites and the argument for each.

// teamPark announces w on its slot and gives the fault hook the window
// between announcement and re-check; the caller re-checks its condition and
// hands the verdict to teamSleep, which withdraws or sleeps (wake.Settle).
//
//repro:noalloc runs in Ctx.Barrier
func (w *worker) teamPark(tag uint32) {
	w.slot.Arm(tag)
	if f := w.sched.opts.Fault; f != nil {
		f(FaultTeamPark, w.id)
	}
}

//repro:noalloc runs in Ctx.Barrier
func (w *worker) teamSleep(tag uint32, ready bool, stop <-chan struct{}) {
	if w.slot.Settle(tag, ready, stop) {
		w.st.Parks.Add(1)
	}
}

// barrier is Ctx.Barrier on the executing worker. The participants are the
// exec.width workers from the team's left end: the last arrival wakes those,
// the others park. Shutdown does not end the wait — every participant that
// picked the execution up arrives, and the task must not run on without it.
//
//repro:noalloc team phases hit the barrier per chunk
func (w *worker) barrier(exec *teamExec) {
	p, missing := exec.barrier.Arrive()
	if missing == 0 {
		left := topo.TeamLeft(exec.coordID, exec.teamSize)
		w.wakeRange(left, left+exec.width, wakeBarrier)
		return
	}
	var bo backoff.Backoff
	for !exec.barrier.Passed(p) {
		if !bo.Pause() {
			w.teamPark(slotBarrier)
			w.teamSleep(slotBarrier, exec.barrier.Passed(p), nil)
		}
	}
}

// countdown is the coordinator's wait for exec's countdown to reach zero (or
// for shutdown); it leaves a fresh backoff behind, as gather does when it
// fixes the team. The tick that reaches zero wakes it.
func (w *worker) countdown(exec *teamExec) {
	s := w.sched
	for exec.pending.Load() > 0 && !s.done.Load() {
		if !w.bo.Pause() {
			w.teamPark(slotTeamWait)
			w.teamSleep(slotTeamWait, exec.pending.Load() <= 0 || s.done.Load(), s.doneCh)
		}
	}
	w.bo.Reset()
}

// tick is a member's one take-off from exec's countdown, in memberStep once
// it is done with the execution: after its share, or at pickup if it is a
// surplus member. At zero it wakes the coordinator. The member's stats are
// flushed first: the coordinator's taskDone that follows the countdown
// publishes only its own.
//
//repro:noalloc once per member per team task
func (w *worker) tick(exec *teamExec) {
	w.flushStats()
	if exec.pending.Add(-1) == 0 {
		w.sched.wake(w.sched.workers[exec.coordID], wakeTeamWait, w)
	}
}
