package core

import (
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/trace"
)

// pollPartners is the team-building poll of Algorithm 8. It is executed both
// by a coordinator gathering a team (c == w) and by a registered member
// helping its coordinator c. It walks the partners required for a team of
// size rneed and, per partner, either resolves a coordination conflict
// (reg.R.Beats, Lemma 3), switches to a smaller task that needs this worker,
// or steals smaller tasks to help a busy partner drain its queues.
func (w *worker) pollPartners(c *worker, rneed int) {
	w.st[stats.Polls].Add(1)
	if rneed <= 1 {
		return
	}
	s := w.sched
	for l := 0; l < s.topo.Levels && 1<<uint(l) < rneed; l++ {
		x := w.partnerAt(l)
		if x == nil || x == w || x == c {
			continue
		}
		xc := x.coordp()
		if xc == c {
			continue // partner already registered with our coordinator
		}
		xcR := xc.regw.Load()
		if xcR.Beats(xc.id, c.id, w.id, rneed) {
			w.switchCoordinator(c, xc)
			return
		}
		// A same-size coordinator that loses waits for us. Any other partner
		// — not gathering, gathering a larger task (we win), or a smaller one
		// that does not need this worker — may hold smaller tasks that keep
		// it from joining: help it finish sooner by stealing them.
		if int(xcR.Req) != rneed && w.helpSteal(c, x, l, rneed) {
			return
		}
	}
}

// switchCoordinator moves w from coordinator c (possibly w itself) to the
// winning coordinator xc (Algorithm 9). A coordinator that loses a conflict
// stops coordinating, revoking all its registrants; a member first leaves
// its old coordinator unless it is already part of a fixed team (then it
// must stay).
func (w *worker) switchCoordinator(c, xc *worker) {
	if c == w {
		r := w.regw.Load()
		if !w.cas(w, r, r.Reset(1), trace.EvConflictYield, xc.id) {
			return
		}
		w.st[stats.ConflictsLost].Add(1)
	} else if !w.leave(c) {
		return
	}
	w.tryRegister(xc)
}

// leave makes w self-coordinated again, ending its registration with
// coordinator c. A registration of the current epoch is taken back with a
// CAS; none is needed when c already revoked it, or when memberStep saw w's
// fixed team end (w.teamed). It returns false if w must stay: it belongs to
// c's fixed team (Algorithm 9: "We are in our current coordinator's team and
// therefore can't drop out"), or the CAS lost a race and the caller should
// retry later.
func (w *worker) leave(c *worker) bool {
	if rc := c.regw.Load(); !w.teamed && rc.Epoch == w.regEpoch {
		if rc.Holds(c.id, w.id) || !w.cas(c, rc, rc.Deregister(), trace.EvDeregister, c.id) {
			return false
		}
		w.st[stats.Deregistrations].Add(1)
	}
	w.teamed = false
	w.coord.Store(w)
	w.bo.Reset()
	return true
}

// tryRegister registers w at coordinator xc with the single extra CAS of
// the paper (§1: "The overhead for forming a new team is a single extra
// atomic compare-and-swap instruction per thread joining a team"). The
// caller must have w.coordp() == w.
func (w *worker) tryRegister(xc *worker) bool {
	rc := xc.regw.Load()
	nr, _ := rc.Register()
	if !rc.Wants(xc.id, w.id) || !w.cas(xc, rc, nr, trace.EvRegister, xc.id) {
		return false
	}
	w.regEpoch = rc.Epoch
	w.teamed = false
	w.coord.Store(xc)
	w.st[stats.Registrations].Add(1)
	return true
}

// helpSteal steals tasks smaller than rneed from partner x found at level l,
// to help x drain its queues and join the team ("Threads attempting to join
// the team for a task requiring a large team may help smaller teams
// instead"). A member first leaves its coordinator (teamed members never
// steal), and only when there is something to take. Stolen tasks land in w's
// own queues; the caller's coordinate() loop will execute them with priority.
func (w *worker) helpSteal(c *worker, x *worker, l, rneed int) bool {
	hi := min(l, topo.Level(rneed)-1)
	if !w.stealable(x, hi) {
		return false
	}
	if c != w && !w.leave(c) {
		return false
	}
	if last := w.steal(x, l, hi); last != nil {
		// Route everything through the queues: the task may need a team.
		w.queues[topo.Level(last.r)].PushBottom(last)
		return true
	}
	return c != w // left c: go work on our own
}
