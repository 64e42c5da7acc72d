package core

import (
	"sync/atomic"

	"repro/internal/stats"
	"repro/internal/topo"
)

// This file is the event-driven half of the idle path. The paper's prototype
// polls: an idle thread backs off with sleeps of up to 10 ms (§4). Here an
// idle worker keeps the spin and yield rounds, then parks on its own wake
// slot with no timer and stays there until a publisher (or Shutdown) wakes
// it. Every site that makes work visible wakes one worker the topology says
// can use it; README.md (Parking and wake-up) has the table of sites and the
// no-lost-wake-up argument.

// parkState is the scheduler-wide summary of the parked set. The per-worker
// slots (worker.slot announced as slotIdle) are the set itself — they work
// for every P the registration word allows — and n is their count: the one
// word a publisher loads per spawn, read-mostly and alone on its cache line,
// so that with nobody parked a spawn pays one load of a shared-clean line
// (TestWBParkStatePadded holds the size to unsafe.Sizeof).
type parkState struct {
	_ [60]byte
	// n counts the workers that announced themselves parked and have not
	// been claimed since (by a waker, or by themselves after a re-check
	// that found work).
	n atomic.Int32
	_ [60]byte
	// searching counts the workers that are looking for work: out of tasks
	// but not parked yet, or claimed by a waker and not yet back with work.
	// A publisher of work any worker can take (an r = 1 task, an injection)
	// wakes nobody while the count is non-zero, as in Go's own scheduler: a
	// searcher re-checks every source after it stops counting.
	searching atomic.Int32
	_         [64]byte
}

// The kinds of sleeper a worker's wake slot holds (wake.Slot tags).
const (
	slotIdle     uint32 = 1 + iota // the idle park of this file
	slotBarrier                    // a participant in Ctx.Barrier (teamwait.go)
	slotTeamWait                   // a member awaiting its coordinator, or a coordinator its members
)

// wakeSource labels repro_sched_wakeups_total.
type wakeSource uint8

const (
	wakeInject   wakeSource = iota // an admission, or a take that left injections pending
	wakeSpawn                      // an interior spawn, or a steal that left or landed tasks
	wakeTeam                       // a coordinator raising its advertisement
	wakeBarrier                    // the last arrival at a team barrier
	wakeTeamWait                   // a publish, pickup, finished share or team-ending transition
	numWakeSources
)

var wakeSourceNames = [numWakeSources]string{"inject", "spawn", "team", "barrier", "teamwait"}

// wakeSlot is the kind of sleeper each source's event is for.
var wakeSlot = [numWakeSources]uint32{slotIdle, slotIdle, slotIdle, slotBarrier, slotTeamWait}

// startSearching counts w among the searchers (idempotent; owner only).
func (w *worker) startSearching() {
	if !w.searching {
		w.searching = true
		w.sched.park.searching.Add(1)
	}
}

// stopSearching ends w's search: it found work, or is about to park.
func (w *worker) stopSearching() {
	if w.searching {
		w.searching = false
		w.sched.park.searching.Add(-1)
	}
}

// park blocks w until a publisher wakes it or the scheduler shuts down.
// Sleeper side of the protocol: announce (slot, then count), stop counting
// as a searcher, re-check every source, block. A publisher stores its work
// first and loads the count, the searcher count and the slot afterwards, so
// one of the two sees the other.
func (w *worker) park() {
	s := w.sched
	w.slot.Arm(slotIdle)
	s.park.n.Add(1)
	w.stopSearching()
	if f := s.opts.Fault; f != nil {
		f(FaultPark, w.id)
	}
	if (w.workVisible() || s.done.Load()) && w.slot.Claim(slotIdle) {
		s.park.n.Add(-1)
		return
	}
	// Either nothing to do, or a waker claimed w between the announcement
	// and the re-check: its token is in the slot or on its way, and taking
	// it here keeps the slot empty for the next park.
	w.st[stats.Parks].Add(1)
	w.slot.Sleep()
	// The waker counted w as a searcher when it claimed it.
	w.searching = true
	w.bo.Reset()
}

// workVisible is the sleeper's re-check: could a steal round started now
// obtain anything? It mirrors takeInjected's fast path and fallbackScan's
// visit of every other worker (for P ≤ 2 the one partner is every other
// worker), with the predicates the steal itself uses, and it must stay
// exactly as permissive as they are: narrower and a wake-up is lost, wider
// and a worker that can use nothing spins instead of parking
// (TestWBWorkVisibleMatchesStealRound).
func (w *worker) workVisible() bool {
	s := w.sched
	if s.pendingInject.Load() != 0 {
		return true
	}
	for _, x := range s.workers {
		if x == w {
			continue
		}
		xc := x.coordp()
		if xc.regw.Load().Wants(xc.id, w.id) || w.stealable(x, len(w.queues)-1) {
			return true
		}
	}
	return false
}

// fits reports whether w can host a task of size class j: its block of 2^j
// consecutive ids lies inside [0, P) (Refinement 3).
func (w *worker) fits(j int) bool {
	return j == 0 || topo.BlockFits(w.id, 1<<uint(j), w.sched.topo.P)
}

// canSteal reports whether w may take tasks of size class j from x: w must
// be able to host them, and its block must not contain the victim (a task
// whose team holds both thief and victim is registered for, not stolen,
// §3.2).
func (w *worker) canSteal(x *worker, j int) bool {
	return j == 0 || (w.fits(j) && !topo.Overlap(w.id, x.id, 1<<uint(j)))
}

// wake claims c if it sleeps in the kind of wait src's event ends and
// signals it, on behalf of worker by (nil for a client goroutine). The claim
// is exclusive and precedes the signal, so one sleep receives at most one
// token and the send never blocks.
//
//repro:noalloc a wake-up sits on the spawner's and the barrier's path; the slot is pre-allocated, no timer, no channel per park
func (s *Scheduler) wake(c *worker, src wakeSource, by *worker) bool {
	if !s.claim(c, wakeSlot[src]) {
		return false
	}
	s.wakes[src].Add(1)
	if by != nil {
		by.st[stats.Wakes].Add(1)
	}
	c.slot.Signal()
	return true
}

// claim takes c's announcement of a sleep of kind tag (the caller signals
// c); a claimed idle park leaves the parked set and counts as a searcher.
func (s *Scheduler) claim(c *worker, tag uint32) bool {
	if !c.slot.Claim(tag) {
		return false
	}
	if tag == slotIdle {
		s.park.n.Add(-1)
		s.park.searching.Add(1) // c searches from now on; see parkState.searching
	}
	return true
}

// wakeRange wakes, for src, every worker with an id in [lo, hi) but w.
//
//repro:noalloc the barrier's release and the coordinator's publish run it per team task
func (w *worker) wakeRange(lo, hi int, src wakeSource) {
	for id := lo; id < hi; id++ {
		if id != w.id {
			w.sched.wake(w.sched.workers[id], src, w)
		}
	}
}

// wakeThief is called after tasks of size class j became visible on pub's
// deque — spawned there, landed there by a steal, or left there by one —
// with at least one worker parked. It wakes one parked worker that can take
// them: the nearest of pub's ≤ log P level partners, the thieves that reach
// pub's deque directly, and failing those any other worker (fallbackScan
// lets every worker reach every deque when P > 2). r = 1 tasks can be taken
// by anybody, so for them a searching worker stands in for the wake.
//
//repro:noalloc called from pushNode whenever anybody is parked
func (w *worker) wakeThief(pub *worker, j int) {
	s := w.sched
	if j == 0 && s.park.searching.Load() != 0 {
		return
	}
	for l := 0; l < s.topo.Levels; l++ {
		if q := s.topo.Partner(pub.id, l); q >= 0 {
			if c := s.workers[q]; c.canSteal(pub, j) && s.wake(c, wakeSpawn, w) {
				return
			}
		}
	}
	if s.topo.P <= 2 {
		return // the partner graph is complete
	}
	for k := 1; k < s.topo.P; k++ {
		c := s.workers[(pub.id+k)%s.topo.P]
		if c.canSteal(pub, j) && s.wake(c, wakeSpawn, w) {
			return
		}
	}
}

// wakeForInject is called with injections pending and at least one worker
// parked: by an admission (by == nil) and by a worker that took one entry and
// left more. The inject queues are global, so any parked worker will do,
// and a searching one stands in for the wake.
func (s *Scheduler) wakeForInject(by *worker) {
	if s.park.searching.Load() != 0 {
		return
	}
	for _, c := range s.workers {
		if s.wake(c, wakeInject, by) {
			return
		}
	}
}

// wakeTeam is called by coordinator w after it raised its advertisement to
// need workers: the registration word now names exactly who is wanted — the
// block of need consecutive ids around w — so every parked worker of the
// block is woken; each registers on its next steal round.
func (w *worker) wakeTeam(need int) {
	if w.sched.park.n.Load() == 0 {
		return
	}
	w.wakeRange(topo.TeamLeft(w.id, need), topo.TeamRight(w.id, need), wakeTeam)
}

// parked returns the number of workers currently announced parked (racy;
// DumpState and tests).
func (s *Scheduler) parked() int { return int(s.park.n.Load()) }
