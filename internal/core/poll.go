package core

import (
	"repro/internal/reg"
	"repro/internal/topo"
	"repro/internal/trace"
)

// pollPartners is the team-building poll of Algorithm 8. It is executed both
// by a coordinator gathering a team (c == w) and by a registered member
// helping its coordinator c. It walks the partners required for a team of
// size rneed and, per partner, either resolves a coordination conflict
// (the smaller task wins; on equal sizes the smaller coordinator id wins,
// Lemma 3), switches to a smaller task that needs this worker, or steals
// smaller tasks to help a busy partner drain its queues.
func (w *worker) pollPartners(c *worker, rneed int) {
	w.st.Polls.Add(1)
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
		xr := int(xcR.Req)
		switch {
		case xr == rneed:
			// Same-size conflict: only meaningful inside the same block.
			if xc.id != c.id && topo.Overlap(xc.id, c.id, rneed) && xc.id < c.id {
				// The partner's task wins deterministically.
				w.switchCoordinator(c, xc)
				return
			}
		case xr > 1 && xr < rneed:
			// The smaller task always wins.
			if topo.Overlap(xc.id, w.id, xr) {
				// It requires this worker: switch to it.
				w.switchCoordinator(c, xc)
				return
			}
			// It does not require this worker: help it finish sooner by
			// stealing from the partner's queues.
			if w.helpSteal(c, x, l, rneed) {
				return
			}
		default:
			// Partner's coordinator is not gathering (xr == 1) or is
			// gathering a larger task (we win). Either way the partner may
			// hold smaller tasks that block it from joining: steal them.
			if w.helpSteal(c, x, l, rneed) {
				return
			}
		}
	}
}

// switchCoordinator moves w from coordinator c (possibly w itself) to the
// winning coordinator xc (Algorithm 9). A coordinator that loses a conflict
// stops coordinating, revoking all its registrants; a member first
// deregisters from its old coordinator unless it is already part of a fixed
// team (then it must stay).
func (w *worker) switchCoordinator(c, xc *worker) {
	if c == w {
		r := w.regw.Load()
		if !w.casTeam(r, reg.Idle(r.Epoch+1)) {
			return
		}
		w.ev(trace.EvConflictYield, xc.id, int(r.Acq), uint64(r.Epoch))
		w.st.ConflictsLost.Add(1)
	} else {
		if !w.deregister(c) {
			return
		}
		w.teamed = false
		w.coord.Store(w)
	}
	w.tryRegister(xc)
}

// deregister removes w's registration from coordinator c. It returns false
// if w must stay (it belongs to c's fixed team — Algorithm 9: "We are in our
// current coordinator's team and therefore can't drop out" — or the CAS
// lost a race and the caller should retry later). A true return means w is
// no longer counted by c.
func (w *worker) deregister(c *worker) bool {
	rc := c.regw.Load()
	if rc.Epoch != w.regEpoch {
		return true // already revoked; nothing to undo
	}
	if w.teamed || (rc.Team > 1 && topo.Overlap(c.id, w.id, int(rc.Team))) {
		return false // fixed team member: cannot drop out
	}
	if rc.Acq <= 1 {
		return true // defensive: nothing to decrement
	}
	nr := rc
	nr.Acq--
	if !c.regw.CAS(rc, nr) {
		w.casFail()
		return false
	}
	w.ev(trace.EvDeregister, c.id, int(nr.Acq), uint64(nr.Epoch))
	w.st.Deregistrations.Add(1)
	return true
}

// tryRegister registers w at coordinator xc with the single extra CAS of
// the paper (§1: "The overhead for forming a new team is a single extra
// atomic compare-and-swap instruction per thread joining a team"). The
// caller must have w.coordp() == w.
func (w *worker) tryRegister(xc *worker) bool {
	rc := xc.regw.Load()
	need := int(rc.Req)
	if need <= 1 || int(rc.Acq) >= need {
		return false
	}
	if !topo.Overlap(xc.id, w.id, need) {
		return false
	}
	nr := rc
	nr.Acq++
	if !xc.regw.CAS(rc, nr) {
		w.casFail()
		return false
	}
	w.regEpoch = rc.Epoch
	w.teamed = false
	w.coord.Store(xc)
	w.ev(trace.EvRegister, xc.id, int(nr.Acq), uint64(rc.Epoch))
	w.st.Registrations.Add(1)
	return true
}

// helpSteal steals tasks smaller than rneed from partner x found at level l,
// to help x drain its queues and join the team ("Threads attempting to join
// the team for a task requiring a large team may help smaller teams
// instead"). A member first deregisters from its coordinator (teamed members
// never steal), and only when there is something to take. Stolen tasks land
// in w's own queues; the caller's coordinate() loop will execute them with
// priority.
func (w *worker) helpSteal(c *worker, x *worker, l, rneed int) bool {
	hi := min(l, topo.Level(rneed)-1)
	if !w.stealable(x, hi) {
		return false
	}
	if c != w {
		// Members must leave the coordinator before working on tasks.
		if !w.deregister(c) {
			return false
		}
		w.teamed = false
		w.coord.Store(w)
	}
	if last := w.steal(x, l, hi); last != nil {
		// Route everything through the queues: the task may need a team.
		w.queues[topo.Level(last.r)].PushBottom(last)
		return true
	}
	return c != w // deregistered: go work on our own
}
