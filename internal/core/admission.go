package core

import (
	"errors"

	"repro/internal/topo"
	"repro/internal/trace"
)

// This file implements the admission-control half of the external submission
// path. Externally spawned tasks do not share one unbounded FIFO slice:
// every submission source — each Group, including the scheduler's root
// group behind group-less Scheduler.Spawn — owns a FIFO inject queue, and
// workers drain the non-empty queues round-robin (takeInjected), so a client
// flooding its own group cannot starve another group's submissions
// (group-fair FIFO: strict FIFO within a source, round-robin across sources).
//
// Two bounds throttle runaway clients at the inject path, before their tasks
// ever reach the worker deques: Options.MaxPendingPerGroup caps one source's
// admitted-but-not-yet-started tasks, Options.MaxInject caps the total
// across all sources. Blocking submissions (Group.Spawn, SpawnBatch,
// Scheduler.Spawn) park on a condition variable until room frees up or the
// scheduler shuts down; non-blocking ones (TrySpawn, TrySpawnBatch) return
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
// All fields are guarded by Scheduler.admitMu.
type injectQ struct {
	ns         []*node
	head       int      // ns[head:] are pending; ns[:head] already taken
	active     bool     // linked into the scheduler's round-robin ring
	next, prev *injectQ // ring links while active
}

func (q *injectQ) pending() int { return len(q.ns) - q.head }

func (q *injectQ) push(n *node) { q.ns = append(q.ns, n) }

func (q *injectQ) pop() *node {
	n := q.ns[q.head]
	q.ns[q.head] = nil // drop the reference; the node may live long
	q.head++
	switch {
	case q.head == len(q.ns):
		q.ns = q.ns[:0] // empty: reuse the backing array from the start
		q.head = 0
	case q.head >= 64 && q.head*2 >= len(q.ns):
		// Compact once the consumed prefix dominates: a queue that
		// oscillates without ever fully draining (a steadily-refilled group
		// in a long-lived server) would otherwise grow its backing array by
		// one retired slot per task ever admitted.
		q.ns = q.ns[:copy(q.ns, q.ns[q.head:])]
		q.head = 0
	}
	return n
}

// admitRoom returns how many more nodes q may accept under the configured
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

// enqueueLocked accounts ns in-flight on g and appends them to g's inject
// queue, activating it in the round-robin ring if it was empty. Accounting
// happens here — at the moment of admission, before any worker can observe
// the nodes — so neither Wait can see a transient zero while an admitted
// task tree is still growing, and a never-admitted node (shutdown,
// ErrSaturated) never inflates the in-flight count. An admission that finds
// the group at zero also puts it into the busy set, again before the
// nodes are visible. Once they are, one parked worker is woken (any: the
// inject queues are global); a taker that leaves nodes behind passes the
// wake on. Caller holds admitMu.
func (s *Scheduler) enqueueLocked(g *Group, ns []*node) {
	q := &g.iq
	if k := int64(len(ns)); g.inflight.Add(k) == k {
		s.markBusy(g)
	}
	// Stamp the group's cancellation epoch once per batch: a later Cancel
	// bumps the epoch under this same lock, so a take that finds a node's
	// stamp stale knows the node predates the cancel and revokes it (see
	// cancel.go and takeInjected).
	gepoch := g.epoch.Load()
	// Stamp the admission time once per batch: the admission-wait histogram
	// (always on) measures enqueue→take, and the tracer — when enabled —
	// records the enqueue on the admission ring (ring P, owned by the admitMu
	// holder, so its writes are serialized like a worker's own).
	now := trace.Now()
	gid := uint32(g.gid)
	xt := s.xt
	traced := xt.Enabled()
	for _, n := range ns {
		n.enq = now
		n.gepoch = gepoch
		if traced {
			n.tid = xt.Record(s.topo.P, trace.EvInjectEnqueue, 0, gid, 0)
		}
		q.push(n)
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
	p := s.pendingInject.Add(int64(len(ns)))
	s.admit.Injected.Add(int64(len(ns)))
	if p > s.admit.PeakPending.Load() {
		s.admit.PeakPending.Store(p)
	}
	if s.park.n.Load() != 0 {
		s.wakeForInject(nil)
	}
}

// admitBlocking admits every node of ns into g in submission order, parking
// while the bounds leave no room, and returns the number of admitted nodes
// plus the typed reason admission stopped early: ErrShutdown on a shut-down
// scheduler, or g's cancellation cause once the group is canceled — a
// parked spawner wakes on cancel/deadline (Group.cancel broadcasts) instead
// of blocking forever. The not-yet-admitted remainder is dropped without
// having been accounted. Batches larger than a bound are admitted in chunks
// as room frees up.
func (s *Scheduler) admitBlocking(g *Group, ns []*node) (int, error) {
	if f := s.opts.Fault; f != nil {
		f(FaultAdmit, -1)
	}
	admitted := 0
	blocked := false
	var err error
	s.admitMu.Lock()
	for admitted < len(ns) {
		if s.done.Load() {
			err = ErrShutdown
			break
		}
		if g.epoch.Load()&1 == 1 {
			err = g.cause // safe: odd epoch observed under admitMu, cause written before the bump
			s.admit.Rejected.Add(int64(len(ns) - admitted))
			break
		}
		k := s.admitRoom(&g.iq, len(ns)-admitted)
		if k == 0 {
			if !blocked {
				blocked = true
				s.admit.BlockedSpawns.Add(1)
			}
			s.admitWaiters++
			s.admitCond.Wait()
			s.admitWaiters--
			continue
		}
		s.enqueueLocked(g, ns[admitted:admitted+k])
		admitted += k
	}
	s.admitMu.Unlock()
	if errors.Is(err, ErrDeadlineExceeded) {
		s.admit.SpawnTimeouts.Add(1)
	}
	for _, n := range ns[admitted:] {
		putNodeShared(n) // dropped on shutdown/cancel: never accounted, never published
	}
	return admitted, err
}

// admitTry admits the longest prefix of ns that fits without blocking.
// It returns the number admitted and ErrSaturated if any node was refused,
// ErrShutdown (admitting nothing) on a shut-down scheduler, or the
// cancellation cause (admitting nothing) on a canceled group.
func (s *Scheduler) admitTry(g *Group, ns []*node) (int, error) {
	if f := s.opts.Fault; f != nil {
		f(FaultAdmit, -1)
	}
	s.admitMu.Lock()
	var err error
	k := 0
	switch {
	case s.done.Load():
		err = ErrShutdown
	case g.epoch.Load()&1 == 1:
		err = g.cause // safe: odd epoch observed under admitMu, cause written before the bump
		s.admit.Rejected.Add(int64(len(ns)))
	default:
		k = s.admitRoom(&g.iq, len(ns))
		if k > 0 {
			s.enqueueLocked(g, ns[:k])
		}
		if k < len(ns) {
			s.admit.Rejected.Add(int64(len(ns) - k))
			err = ErrSaturated
		}
	}
	s.admitMu.Unlock()
	for _, n := range ns[k:] {
		putNodeShared(n) // refused: never accounted, never published
	}
	return k, err
}

// takeInjected moves one externally submitted task into w's queues, serving
// the per-source inject queues round-robin: one node from the current ring
// position, then advance. A drained queue leaves the ring (and re-enters at
// the back on its next admission), so sources that keep refilling rotate
// fairly. Freed room wakes parked blocking spawners.
//
// Revocation happens here, at take time: a node whose epoch stamp no longer
// matches its group's cancellation epoch was admitted before the group was
// canceled, so it is recycled without executing — an instant completion on
// its group's count (finishRevoke) — and the loop tries the next node. The
// live case costs one predicted load and compare; the interior spawn path
// (Ctx.Spawn) is untouched.
//
// The taker runs the node itself on its next coordinate() pass, so the push
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
		n := q.pop()
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
		g := n.group
		// Under admitMu, so ordered with Group.cancel's epoch bump.
		revoked := n.gepoch != g.epoch.Load()
		if revoked {
			s.admit.Revoked.Add(1)
		} else {
			s.admit.Taken.Add(1)
		}
		if wake && s.admitWaiters > 0 {
			s.admitCond.Broadcast()
		}
		s.admitMu.Unlock()
		if revoked {
			s.finishRevoke(w, n, g)
			continue // a live node may sit right behind the revoked one
		}
		// Scheduler-owned admission latency: every take feeds the histogram,
		// so the inject-to-take wait is observable without client cooperation.
		s.admitWait.Observe(w.id, float64(trace.Now()-n.enq)/1e9)
		if xt := s.xt; xt.Enabled() {
			xt.Record(w.id, trace.EvInjectTake, s.topo.P, uint32(g.gid), n.tid)
		}
		w.st.InjectTakes.Add(1)
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
// node never executes, so it is an instant completion on its group's count
// (taskDone, with the usual zero-transition release) and is recycled on the
// revoking worker's free list. Each admitted node is revoked at most once
// (it was popped from its inject queue under admitMu), so Wait still
// releases exactly once.
func (s *Scheduler) finishRevoke(w *worker, n *node, g *Group) {
	if xt := s.xt; xt.Enabled() {
		xt.Record(w.id, trace.EvInjectRevoke, s.topo.P, uint32(g.gid), n.tid)
	}
	w.freeNode(n)
	w.taskDone(g)
}

// PendingInjected returns the number of admitted external tasks no worker
// has started yet, across all sources (racy; for tests and diagnostics).
func (s *Scheduler) PendingInjected() int64 {
	return s.pendingInject.Load()
}
