package core

import (
	"repro/internal/deque"
	"repro/internal/topo"
	"repro/internal/trace"
)

// stealTasks is Algorithm 7: an idle worker (empty queues, self-coordinated)
// visits its log p deterministic partners from the nearest level outwards.
// At each level it either registers for a team whose task requires it, or
// steals tasks from the partner. Returns true if it obtained work (stolen
// tasks in its queues, a task executed, or a registration).
func (w *worker) stealTasks() bool {
	for l := 0; l < w.sched.topo.Levels; l++ {
		// A missing partner (Refinement 3) is skipped.
		if x := w.partnerAt(l); x != nil && w.visit(x, l, l) {
			return true
		}
	}
	// Liveness fallback for arbitrary p (Refinement 3): tasks can sit on
	// workers whose own block does not fit them and whose partner links do
	// not cover every thief. A bounded global scan keeps them reachable.
	return w.fallbackScan()
}

// visit is the register-or-steal step at x, found at level l. If x's
// coordinator requires w for its task — the team spans both level-l halves
// (r ≥ 2^{l+1}) and w lies inside its block — w registers. Otherwise it
// steals from x's classes up to hi; a single-threaded last task is executed
// immediately rather than enqueued (§4: so it cannot be stolen back).
func (w *worker) visit(x *worker, l, hi int) bool {
	xc := x.coordp()
	if xcR := xc.regw.Load(); int(xcR.Req) >= 2<<uint(l) && xcR.Wants(xc.id, w.id) {
		return w.tryRegister(xc)
	}
	last := w.steal(x, l, hi)
	if last == nil {
		return false
	}
	if last.r == 1 {
		w.runSolo(last)
	} else {
		w.queues[topo.Level(last.r)].PushBottom(last)
	}
	return true
}

// fallbackScan performs one bounded round-robin pass over every other
// worker, from a random one, trying the same register-or-steal step as
// stealTasks. It preserves the paper's restriction that a thief never steals
// a task whose team would contain both thief and victim — for those it
// registers instead. This scan is a deviation from the paper: it guarantees
// progress for non-power-of-two p, where the pure partner graph can leave
// tasks unreachable.
func (w *worker) fallbackScan() bool {
	s := w.sched
	p := s.topo.P
	if p <= 2 {
		return false // partner graph is already complete
	}
	start := int(w.rand() % uint64(p-1))
	for k := 0; k < p-1; k++ {
		if w.visit(s.workers[(w.id+1+(start+k)%(p-1))%p], 0, len(w.queues)-1) {
			return true
		}
	}
	return false
}

// steal moves tasks from x to w: from the largest size class j ≤ hi that x
// holds and w may take (§4: "we can achieve better scheduling in many cases,
// if we steal the largest allowed tasks"; canSteal: §3.2 and Refinement 3),
// min(size/2, 2^{l−j}) of them for x found at level l (§4). All but the last
// land on w's queue; the last is returned for the caller to run or enqueue,
// nil if nothing was taken. It is the only code that moves tasks between
// workers' deques.
func (w *worker) steal(x *worker, l, hi int) *node {
	for j := min(hi, len(w.queues)-1); j >= 0; j-- {
		if !w.canSteal(x, j) {
			continue
		}
		sz := x.queues[j].Size()
		if sz == 0 {
			continue
		}
		last, nst := deque.Steal(x.queues[j], w.queues[j], stealCount(sz, l-j))
		if nst == 0 {
			continue
		}
		w.stolen(x, j, nst)
		return last
	}
	return nil
}

// stealable reports whether steal(x, ·, hi) finds a class to take from.
func (w *worker) stealable(x *worker, hi int) bool {
	for j := min(hi, len(w.queues)-1); j >= 0; j-- {
		if w.canSteal(x, j) && !x.queues[j].Empty() {
			return true
		}
	}
	return false
}

// stealCount computes how many tasks to transfer: the paper's
// min(size/2, 2^dist) heuristic (§4 "Number of tasks to steal"), at least
// one.
func stealCount(size, dist int) int {
	return max(1, min(size/2, 1<<uint(max(dist, 0))))
}

// stolen accounts a successful steal of nst tasks from x's level-j queue,
// ends w's search, and passes the wake on: all but the last stolen task are
// already in w's own queue, where w's partners can reach them, and failing
// that the victim may have tasks left that the searching w kept other
// workers from being woken for.
func (w *worker) stolen(x *worker, j, nst int) {
	w.st.Steals.Add(1)
	w.st.TasksStolen.Add(int64(nst))
	w.ev(trace.EvSteal, x.id, nst, 0)
	w.stopSearching()
	if w.sched.park.n.Load() == 0 {
		return
	}
	if nst > 1 {
		w.wakeThief(w, j)
	} else if !x.queues[j].Empty() {
		w.wakeThief(x, j)
	}
}
