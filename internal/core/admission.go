package core

import (
	"errors"

	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/trace"
)

// This file implements the admission-control half of the external submission
// path. Externally spawned tasks do not share one unbounded FIFO slice:
// every Group — the only submission source — owns a FIFO inject queue, and
// workers drain the non-empty queues round-robin (takeInjected), so a client
// flooding its own group cannot starve another group's submissions
// (group-fair FIFO: strict FIFO within a group, round-robin across groups).
//
// Two bounds throttle runaway clients at the inject path, before their tasks
// ever reach the worker deques: Options.MaxPendingPerGroup caps one source's
// admitted-but-not-yet-started tasks, Options.MaxInject caps the total
// across all sources. Both kinds of submission go through one function,
// admitTasks: blocking ones (Group.Spawn, SpawnBatch) park on a condition
// variable until room frees up, the group is canceled or the scheduler
// shuts down; non-blocking ones (TrySpawn, TrySpawnBatch) return
// ErrSaturated instead. Interior spawns (Ctx.Spawn) are never throttled:
// they are the scheduler's own task-tree growth, not client ingress.

// Typed admission errors, returned by the non-blocking spawn forms.
var (
	// ErrSaturated reports that an admission bound (MaxPendingPerGroup or
	// MaxInject) left no room for the submission.
	ErrSaturated = errors.New("core: inject queues saturated")
	// ErrShutdown reports a submission to a shut-down scheduler.
	ErrShutdown = errors.New("core: scheduler is shut down")
)

// injectQ is one source's FIFO of admitted but not-yet-started external
// tasks, and an intrusive node of the scheduler's round-robin ring (a
// circular doubly-linked list of the non-empty sources, so joining and
// leaving the rotation is O(1) however many clients submit concurrently).
// All fields but group, the Group the queue is embedded in, are guarded by
// Scheduler.admitMu.
type injectQ struct {
	group      *Group
	es         []entry
	head       int      // es[head:] are pending; es[:head] already taken
	active     bool     // linked into the scheduler's round-robin ring
	next, prev *injectQ // ring links while active
}

// entry is one admitted external task of its queue's group. It has no
// node: a client goroutine owns no node stack, so the worker that takes a
// live entry wraps it in a node of its own. r caches Threads(); tid is the
// trace id of the enqueue event; enq is the admission time (trace.Now) the
// admission-wait histogram reads at take time; a take revokes the entry
// instead of running it when gepoch, the group's cancellation epoch at
// admission, has gone stale.
type entry struct {
	task   Task
	r      int
	tid    uint64
	enq    int64
	gepoch uint64
}

func (q *injectQ) pending() int { return len(q.es) - q.head }

func (q *injectQ) push(e entry) { q.es = append(q.es, e) }

func (q *injectQ) pop() entry {
	e := q.es[q.head]
	q.es[q.head] = entry{} // drop the references; the slot may live long
	q.head++
	switch {
	case q.head == len(q.es):
		q.es = q.es[:0] // empty: reuse the backing array from the start
		q.head = 0
	case q.head >= 64 && q.head*2 >= len(q.es):
		// Compact once the consumed prefix dominates: a queue that
		// oscillates without ever fully draining (a steadily-refilled group
		// in a long-lived server) would otherwise grow its backing array by
		// one retired slot per task ever admitted.
		q.es = q.es[:copy(q.es, q.es[q.head:])]
		q.head = 0
	}
	return e
}

// admitRoom returns how many more tasks q may accept under the configured
// bounds, at most want. Caller holds admitMu.
func (s *Scheduler) admitRoom(q *injectQ, want int) int {
	if m := s.opts.MaxInject; m > 0 {
		if r := m - int(s.pendingInject.Load()); r < want {
			want = r
		}
	}
	if m := s.opts.MaxPendingPerGroup; m > 0 {
		if r := m - q.pending(); r < want {
			want = r
		}
	}
	if want < 0 {
		want = 0
	}
	return want
}

// enqueueLocked admits the first k non-nil tasks of ts into g and returns
// how many elements of ts it consumed, the nil tasks among and right after
// them included: it accounts them in-flight on g and appends their entries
// to g's inject queue, activating it in the round-robin ring if it was
// empty. Accounting happens here — at the moment
// of admission, before any worker can observe the entries — so neither Wait
// can see a transient zero while an admitted task tree is still growing, and
// a never-admitted task (shutdown, ErrSaturated) never inflates the
// in-flight count. An admission that finds the group at zero also puts it
// into the busy set, again before the entries are visible. Once they are,
// one parked worker is woken (any: the inject queues are global); a taker
// that leaves entries behind passes the wake on. Caller holds admitMu.
func (s *Scheduler) enqueueLocked(g *Group, ts []Task, k int) int {
	q := &g.iq
	if g.inflight.Add(int64(k)) == int64(k) {
		s.markBusy(g)
	}
	p := s.pendingInject.Add(int64(k))
	s.admit[stats.Injected].Add(int64(k))
	if p > s.admit[stats.PeakPending].Load() {
		s.admit[stats.PeakPending].Store(p)
	}
	// Stamp the group's cancellation epoch once per batch: a later Cancel
	// bumps the epoch under this same lock, so a take that finds an entry's
	// stamp stale knows the entry predates the cancel and revokes it (see
	// cancel.go and takeInjected).
	e := entry{gepoch: g.epoch.Load()}
	// Stamp the admission time once per batch: the admission-wait histogram
	// (always on) measures enqueue→take, and the tracer — when enabled —
	// records the enqueue on the admission ring (ring P, owned by the admitMu
	// holder, so its writes are serialized like a worker's own).
	e.enq = trace.Now()
	xt := s.xt
	traced := xt.Enabled()
	i := 0
	for ; i < len(ts) && (k > 0 || ts[i] == nil); i++ {
		if t := ts[i]; t != nil {
			e.task, e.r = t, t.Threads()
			if traced {
				e.tid = xt.Record(s.topo.P, trace.EvInjectEnqueue, 0, uint32(g.gid), 0)
			}
			q.push(e)
			k--
		}
	}
	if !q.active {
		q.active = true
		if s.ringHead == nil {
			q.next, q.prev = q, q
			s.ringHead = q
		} else {
			// Insert at the back of the rotation (just before the head): a
			// source that drained and refilled waits a full round, so it
			// cannot camp at the front.
			tail := s.ringHead.prev
			tail.next, q.prev = q, tail
			q.next, s.ringHead.prev = s.ringHead, q
		}
		s.ringLen++
	}
	if s.park.n.Load() != 0 {
		s.wakeForInject(nil)
	}
	return i
}

// admitTasks admits the tasks of ts into g in submission order and returns
// how many elements of ts it got through, plus the typed reason it stopped
// early: ErrShutdown on a shut-down scheduler, or g's cancellation cause. A
// nil task is the empty computation: skipped, never accounted. Every thread
// requirement is validated before admitMu is taken, so a panic leaves
// nothing accounted and no lock held. When the bounds leave no room, a
// blocking call (Spawn, SpawnBatch) parks until they do — a batch larger
// than a bound is admitted in chunks — and wakes on shutdown or cancel
// (Group.cancel broadcasts) instead of blocking forever; a non-blocking one
// (TrySpawn, TrySpawnBatch) keeps the longest prefix that fitted and returns
// ErrSaturated. The not-yet-admitted remainder is dropped without having
// been accounted.
func (s *Scheduler) admitTasks(g *Group, ts []Task, block bool) (int, error) {
	left := 0 // tasks of ts not admitted yet
	for _, t := range ts {
		if t != nil {
			s.validateReq(t.Threads())
			left++
		}
	}
	if left == 0 {
		return len(ts), nil
	}
	if f := s.opts.Fault; f != nil {
		f(FaultAdmit, -1)
	}
	admitted := 0
	blocked := false
	var err error
	s.admitMu.Lock()
	for {
		if s.done.Load() {
			err = ErrShutdown
			break
		}
		if g.epoch.Load()&1 == 1 {
			err = g.cause // safe: odd epoch observed under admitMu, cause written before the bump
			s.admit[stats.Rejected].Add(int64(left))
			break
		}
		if k := s.admitRoom(&g.iq, left); k > 0 {
			admitted += s.enqueueLocked(g, ts[admitted:], k)
			left -= k
		}
		if left == 0 {
			break
		}
		if !block {
			err = ErrSaturated
			s.admit[stats.Rejected].Add(int64(left))
			break
		}
		if !blocked {
			blocked = true
			s.admit[stats.BlockedSpawns].Add(1)
		}
		s.admitWaiters++
		s.admitCond.Wait()
		s.admitWaiters--
	}
	s.admitMu.Unlock()
	if block && errors.Is(err, ErrDeadlineExceeded) {
		s.admit[stats.SpawnTimeouts].Add(1)
	}
	return admitted, err
}

// takeInjected moves one externally submitted task into w's queues, serving
// the per-source inject queues round-robin: one entry from the current ring
// position, then advance. A live entry is wrapped in a node from w's own
// free list. A drained queue leaves the ring (and re-enters at
// the back on its next admission), so sources that keep refilling rotate
// fairly. Freed room wakes parked blocking spawners.
//
// Revocation happens here, at take time: an entry whose epoch stamp no longer
// matches its group's cancellation epoch was admitted before the group was
// canceled, so it completes without executing — an instant completion on
// its group's count (finishRevoke) — and the loop tries the next entry. The
// live case costs one predicted load and compare; the interior spawn path
// (Ctx.Spawn) is untouched.
//
// The taker runs the task itself on its next coordinate() pass, so the push
// wakes nobody, with one exception: a team task whose block does not fit the
// taker (Refinement 3) can only be run by a thief. A take that leaves
// injections pending passes the admission's wake on.
//
// The empty case is the hot one: every searching coordinator polls here each
// loop iteration, so a scheduler with no external work must not serialize
// its workers on admitMu. One lock-free atomic load answers "is there
// anything at all?"; the lock is taken only when work (probably) exists.
func (s *Scheduler) takeInjected(w *worker) bool {
	if s.pendingInject.Load() == 0 {
		return false
	}
	if f := s.opts.Fault; f != nil {
		f(FaultInjectTake, w.id)
	}
	for {
		s.admitMu.Lock()
		q := s.ringHead
		if q == nil {
			// The pending count was stale: another worker drained the queues
			// between our load and the lock.
			s.admitMu.Unlock()
			return false
		}
		// A parked spawner is blocked on a bound that was exhausted when it
		// last checked; this take can only unblock it if it crosses that
		// bound's boundary. Waking on every take would stampede all parked
		// clients per drained task (the clients ≫ bound regime) when at most
		// one can admit.
		wake := false
		if m := s.opts.MaxInject; m > 0 && int(s.pendingInject.Load()) == m {
			wake = true
		}
		if m := s.opts.MaxPendingPerGroup; m > 0 && q.pending() == m {
			wake = true
		}
		e := q.pop()
		if q.pending() == 0 {
			q.active = false
			if q.next == q {
				s.ringHead = nil
			} else {
				q.prev.next, q.next.prev = q.next, q.prev
				s.ringHead = q.next
			}
			q.next, q.prev = nil, nil
			s.ringLen--
		} else {
			s.ringHead = q.next // rotate: next source serves the next take
		}
		s.pendingInject.Add(-1)
		g := q.group
		// Under admitMu, so ordered with Group.cancel's epoch bump.
		revoked := e.gepoch != g.epoch.Load()
		if revoked {
			s.admit[stats.Revoked].Add(1)
		} else {
			s.admit[stats.Taken].Add(1)
		}
		if wake && s.admitWaiters > 0 {
			s.admitCond.Broadcast()
		}
		s.admitMu.Unlock()
		if revoked {
			s.finishRevoke(w, g, e)
			continue // a live entry may sit right behind the revoked one
		}
		// Scheduler-owned admission latency: every take feeds the histogram,
		// so the inject-to-take wait is observable without client cooperation.
		s.admitWait.Observe(w.id, float64(trace.Now()-e.enq)/1e9)
		if xt := s.xt; xt.Enabled() {
			xt.Record(w.id, trace.EvInjectTake, s.topo.P, uint32(g.gid), e.tid)
		}
		w.st[stats.InjectTakes].Add(1)
		n := w.getNode()
		n.task, n.r, n.group, n.tid = e.task, e.r, g, e.tid
		j := topo.Level(n.r)
		w.queues[j].PushBottom(n)
		w.stopSearching()
		if s.park.n.Load() != 0 {
			if !w.fits(j) {
				w.wakeThief(w, j)
			}
			if s.pendingInject.Load() != 0 {
				s.wakeForInject(w)
			}
		}
		return true
	}
}

// finishRevoke completes a take-time revocation off the admission lock: the
// task never executes, so it is an instant completion on its group's count
// (taskDone, with the usual zero-transition release). Each admitted entry is
// revoked at most once (it was popped from its inject queue under admitMu),
// so Wait still releases exactly once.
func (s *Scheduler) finishRevoke(w *worker, g *Group, e entry) {
	if xt := s.xt; xt.Enabled() {
		xt.Record(w.id, trace.EvInjectRevoke, s.topo.P, uint32(g.gid), e.tid)
	}
	w.taskDone(g)
}

// PendingInjected returns the number of admitted external tasks no worker
// has started yet, across all sources (racy; for tests and diagnostics).
func (s *Scheduler) PendingInjected() int64 {
	return s.pendingInject.Load()
}
