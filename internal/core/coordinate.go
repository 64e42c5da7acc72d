package core

import (
	"repro/internal/reg"
	"repro/internal/topo"
	"repro/internal/trace"
)

// coordinate drains the worker's own queues: single-threaded tasks run
// directly; multi-threaded tasks are coordinated through the full team
// lifecycle (Algorithm 6, with Refinement 1 level selection and team
// persistence per §3.1). It returns when the queues hold no coordinatable
// work, when the worker yielded its coordination to a conflicting
// coordinator, or on shutdown.
func (w *worker) coordinate() {
	s := w.sched
	for !s.done.Load() {
		if w.coordp() != w {
			return // yielded inside pollPartners
		}
		r := w.regw.Load()
		lvl := w.chooseLevel(r)
		if lvl < 0 {
			// No coordinatable work: release any team / pending registrants
			// before the worker turns thief ("the team will dissolve ... as
			// soon as the current coordinator's queue runs empty").
			w.dropCoordination(r)
			return
		}
		target := 1 << uint(lvl)
		if target == 1 && r.Team <= 1 {
			// Classical work-stealing fast path. If a gathering for a larger
			// task was in progress, revoke it first (new smaller task: a←t,
			// N++, §3 registration structure rules).
			if r.Req != 1 || r.Acq != 1 {
				w.cas(w, r, r.Reset(1), trace.EvPreempt, w.id)
				continue
			}
			if n := w.queues[0].PopBottom(); n != nil {
				w.runSolo(n)
			}
			continue
		}
		w.st.TeamsCoordd.Add(1)
		switch {
		case int(r.Team) == target:
			// Team already fixed at the right size: execute directly
			// ("Teams can stay to process further tasks requiring the same
			// number of threads; this requires no further coordination").
			w.publishAndRun(lvl, target)
		case int(r.Team) < target:
			if int(r.Req) != target {
				// A shrinking advertisement revokes the registrants acquired
				// for the larger block (reg.R.Advertise).
				if !w.cas(w, r, r.Advertise(target), trace.EvGrowAdvertise, w.id) {
					continue
				}
				w.wakeTeam(target)
			}
			w.gather(lvl, target)
		default: // r.Team > target: shrink deterministically to my block
			w.cas(w, r, r.Reset(target), trace.EvShrink, w.id)
		}
	}
}

// chooseLevel picks the queue level to coordinate next: the current team's
// level while it still has work (Refinement 1: "when a team of threads works
// on a queue, it continues working on this queue, even if queues containing
// smaller tasks get filled again"), otherwise the lowest non-empty level
// whose team block fits this worker (Refinement 3). Returns −1 if no
// coordinatable work exists.
func (w *worker) chooseLevel(r reg.R) int {
	if r.Team > 1 {
		tl := topo.Log2Floor(int(r.Team))
		if tl < len(w.queues) && !w.queues[tl].Empty() {
			return tl
		}
	}
	for j := 0; j < len(w.queues); j++ {
		if w.queues[j].Empty() {
			continue
		}
		if w.fits(j) {
			return j
		}
		// A task this worker cannot host (its block exceeds p); leave it for
		// a thief whose block fits and keep scanning.
	}
	return -1
}

// preemptLevel reports the lowest non-empty fitting level strictly below
// lvl, honoring team persistence (levels below the current team size are
// only run after the team's queue empties). Returns −1 if gathering should
// continue.
func (w *worker) preemptLevel(r reg.R, lvl int) int {
	low := 0
	if r.Team > 1 {
		low = topo.Log2Floor(int(r.Team))
	}
	for j := low; j < lvl; j++ {
		if w.queues[j].Empty() {
			continue
		}
		if w.fits(j) {
			return j
		}
	}
	return -1
}

// dropCoordination releases all coordination state: pending registrants are
// revoked and any team is disbanded (epoch bump).
func (w *worker) dropCoordination(r reg.R) {
	for r.Req != 1 || r.Acq != 1 || r.Team != 1 {
		if w.cas(w, r, r.Reset(1), trace.EvDisband, w.id) {
			return
		}
		r = w.regw.Load()
	}
}

// gather waits for the remaining team members to register (a == r), fixing
// the team with the single CAS of Algorithm 6 once they have. While waiting
// it polls its partners to help the team form and to resolve conflicts, and
// it abandons the gathering if smaller tasks arrive (they always win, §3).
func (w *worker) gather(lvl, target int) {
	s := w.sched
	for !s.done.Load() {
		if w.coordp() != w {
			return // lost a conflict and registered elsewhere
		}
		r := w.regw.Load()
		if int(r.Req) != target {
			return // advertisement changed; re-evaluate in coordinate()
		}
		if nr, ok := r.Fix(); ok {
			if w.cas(w, r, nr, trace.EvTeamFixed, w.id) {
				// The gathering escalated the backoff round by round; the
				// team's countdown waits for members that are about to act.
				w.bo.Reset()
				w.publishAndRun(lvl, target)
				return
			}
			continue
		}
		if w.preemptLevel(r, lvl) >= 0 {
			// A smaller task appeared: revoke the non-teamed registrants
			// (a ← t, N++) and let coordinate() restart at the lower level.
			w.cas(w, r, r.Reset(int(r.Team)), trace.EvPreempt, w.id)
			return
		}
		w.pollPartners(w, target)
		w.st.Backoffs.Add(1)
		w.bo.Wait()
	}
}

// publishAndRun pops the bottom task of queue lvl and executes it with the
// fixed team of the given size. The coordinator participates if its
// team-local id lies below the task's width, waits until every other worker
// of the block has picked the execution up and, if it participates,
// finished its share, and only then proceeds (so registration-word
// transitions never race with a running team execution).
func (w *worker) publishAndRun(lvl, target int) {
	s := w.sched
	n := w.queues[lvl].PopBottom()
	if n == nil {
		// The task was stolen while the team formed. The team persists; the
		// coordinate() loop re-evaluates (and disbands if nothing is left).
		return
	}
	if target == 1 {
		w.runSolo(n)
		return
	}
	exec := &teamExec{
		task:     n.task,
		group:    n.group,
		teamSize: target,
		width:    n.r,
		coordID:  w.id,
		gen:      s.nextGen(),
		tid:      n.tid,
	}
	exec.barrier.Init(exec.width)
	exec.pending.Store(int32(target - 1))
	w.freeNode(n) // content copied into exec; recycle before running
	w.lastGen = exec.gen
	w.cur.Store(exec)
	// Members kept from the previous task are parked in memberStep.
	w.wakeRange(topo.TeamLeft(w.id, target), topo.TeamRight(w.id, target), wakeTeamWait)
	w.ev(trace.EvPublish, w.id, target, exec.gen)
	w.st.TeamsFormed.Add(1)
	if lid := topo.LocalID(w.id, w.id, target); lid < exec.width {
		w.runTeamPart(exec, lid)
	}
	// The countdown G of the paper, extended to the end of each member's
	// share: every other worker of the block ticks once, a participant when
	// its share returns, a surplus member (Refinement 2) at pickup.
	w.countdown(exec)
	w.cur.Store(nil)
	w.ev(trace.EvExecDone, w.id, target, exec.gen)
	w.taskDone(exec.group)
	if s.opts.DisableTeamReuse {
		w.dropCoordination(w.regw.Load())
	}
}
