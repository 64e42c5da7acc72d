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
	s := w.sched
	for l := 0; l < s.topo.Levels; l++ {
		x := w.partnerAt(l)
		if x == nil {
			continue // missing partner (Refinement 3)
		}
		xc := x.coordp()
		xcR := xc.regw.Load()
		need := int(xcR.Req)
		// "Partner's coordinator requires this thread for execution of its
		// task": the task spans both level-l halves (r ≥ 2^{l+1}) and this
		// worker lies inside its team block.
		if need >= 1<<uint(l+1) && int(xcR.Acq) < need &&
			topo.Overlap(xc.id, w.id, need) {
			if w.tryRegister(xc) {
				return true
			}
			continue
		}
		if w.stealFrom(x, l) {
			return true
		}
	}
	// Liveness fallback for arbitrary p (Refinement 3): tasks can sit on
	// workers whose own block does not fit them and whose partner links do
	// not cover every thief. A bounded global scan keeps them reachable.
	return w.fallbackScan()
}

// stealFrom transfers tasks from partner x found at level l, largest
// eligible size class first (§4: "we can achieve better scheduling in many
// cases, if we steal the largest allowed tasks"). Only tasks with r ≤ 2^l
// are eligible (thief and victim must not share the task's team, §3.2), and
// team tasks only if the thief's block fits them (Refinement 3). If the last
// stolen task is single-threaded it is executed immediately rather than
// enqueued (§4: the last stolen task is not put on the queue so it cannot
// be stolen back).
func (w *worker) stealFrom(x *worker, l int) bool {
	maxJ := l
	if m := len(w.queues) - 1; maxJ > m {
		maxJ = m
	}
	for j := maxJ; j >= 0; j-- {
		if !w.fits(j) {
			continue
		}
		sz := x.queues[j].Size()
		if sz == 0 {
			continue
		}
		cnt := w.stealCount(sz, l-j)
		last, nst := deque.Steal(x.queues[j], w.queues[j], cnt)
		if nst == 0 {
			continue
		}
		w.stolen(x, j, nst)
		if last.r == 1 {
			w.runSolo(last)
		} else {
			w.queues[j].PushBottom(last)
		}
		return true
	}
	return false
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

// fallbackScan performs one bounded round-robin pass over all workers,
// trying the same register-or-steal step as stealTasks. It preserves the
// paper's restriction that a thief never steals a task whose team would
// contain both thief and victim — for those it registers instead. This scan
// is a deviation from the paper: it guarantees progress for non-power-of-two
// p, where the pure partner graph can leave tasks unreachable.
func (w *worker) fallbackScan() bool {
	s := w.sched
	p := s.topo.P
	if p <= 2 {
		return false // partner graph is already complete
	}
	start := 1 + int(w.rand()%uint64(p-1))
	for k := 0; k < p-1; k++ {
		v := (w.id + start + k) % p
		if v == w.id {
			continue
		}
		x := s.workers[v]
		xc := x.coordp()
		xcR := xc.regw.Load()
		need := int(xcR.Req)
		if w.wantedBy(xc, need, int(xcR.Acq)) {
			if w.tryRegister(xc) {
				return true
			}
			continue
		}
		for j := len(w.queues) - 1; j >= 0; j-- {
			if !w.canSteal(x, j) {
				continue
			}
			sz := x.queues[j].Size()
			if sz == 0 {
				continue
			}
			cnt := w.stealCount(sz, 0)
			last, nst := deque.Steal(x.queues[j], w.queues[j], cnt)
			if nst == 0 {
				continue
			}
			w.stolen(x, j, nst)
			if last.r == 1 {
				w.runSolo(last)
			} else {
				w.queues[j].PushBottom(last)
			}
			return true
		}
	}
	return false
}
