package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// Group is a set of tasks with its own quiescence: Wait returns when every
// task spawned into the group — including all descendants spawned by those
// tasks via Ctx.Spawn, which inherit the group — has completed, regardless
// of what other groups on the same scheduler are doing. Groups are what let
// one scheduler serve many independent clients concurrently: with the
// paper's r = 1 tasks the scheduler behaves like ordinary work-stealing, so
// a group is the mixed-mode analogue of one client's fork-join computation,
// and two clients' groups drain independently instead of waiting on the
// scheduler's global task count.
//
// A Group is also an admission source: its external spawns feed a private
// FIFO inject queue that workers drain round-robin against the other
// groups' queues (see admission.go), so one group's submission flood cannot
// starve another group's, and the optional Options bounds throttle each
// group at the inject path.
//
// A Group is not the same thing as a TaskGroup: a TaskGroup is an
// in-task fork/join helper whose Wait runs on a worker and helps execute
// single-threaded children; a Group is an external-facing quiescence domain
// that may contain team tasks of any width, and its Wait (called from
// outside the scheduler's workers) parks rather than helping.
//
// Groups are cheap (one counter and an inject queue) and single-use or
// reusable at the caller's choice: after Wait returns, more tasks may be
// spawned into the same group and waited for again. Methods are safe for
// concurrent use.
type Group struct {
	s *Scheduler

	// gid is a small scheduler-unique id labeling the group's trace events,
	// so the Chrome export can render each group as its own async span.
	gid uint64

	// inflight counts the group's admitted and detached (Ctx.Spawn) tasks
	// that have not completed — the only in-flight accounting those tasks
	// have; children joined through a TaskGroup complete on the TaskGroup
	// instead and are covered by their spawner's unit. A group is one
	// client's computation, so the contention on the counter is bounded by
	// that client's parallelism, but it gets its own cache line: sharing
	// one with the scheduler pointer (or a neighboring group in client-side
	// slices of Groups) would put every completion's RMW on a line other
	// CPUs read.
	_        [56]byte
	inflight atomic.Int64
	_        [56]byte

	qz quiesce // parks Wait on the inflight zero transition
	iq injectQ // pending external submissions; guarded by s.admitMu

	// epoch is the group's cancellation epoch: even while live, odd once
	// canceled (see cancel.go). It is bumped only under s.admitMu — the lock
	// admission and take already hold — so a node's stamp at admission
	// (node.gepoch) and the comparison at take time observe a cancel
	// atomically with the queue state. It is an atomic.Uint64 so that every
	// access, locked or not, goes through Load/Add: the compiler rejects a
	// plain read. On amd64 Load is the same plain MOV.
	epoch atomic.Uint64

	// cancelMu serializes the control-plane transitions (Cancel, Deadline,
	// Reset); it is never taken on a task path. cause is written under
	// cancelMu before the epoch goes odd and read only after observing the
	// odd epoch; timer is the pending Deadline timer.
	cancelMu sync.Mutex
	cause    error
	timer    *time.Timer
}

// NewGroup returns a fresh, empty task group on s.
func (s *Scheduler) NewGroup() *Group {
	return &Group{s: s, gid: s.groupSeq.Add(1)}
}

// Scheduler returns the scheduler the group spawns into.
func (g *Group) Scheduler() *Scheduler { return g.s }

// Spawn submits t from outside the scheduler as part of the group. Tasks
// that t spawns via Ctx.Spawn while running join the same group
// automatically. It is safe for concurrent use.
//
// With admission bounds configured (Options.MaxPendingPerGroup/MaxInject),
// Spawn blocks while the bounds leave no room; a task only counts toward
// the group's quiescence once admitted. Do not call a potentially blocking
// Spawn from inside a running task of the same scheduler — a worker parked
// on admission cannot help drain the very queues it waits on; use Ctx.Spawn
// (never throttled) or TrySpawn there.
//
// Spawn returns nil once the task is admitted. On a shut-down scheduler it
// returns ErrShutdown; on a canceled group (including a parked Spawn whose
// group is canceled or passes its deadline while waiting) it returns the
// cancellation cause — ErrCanceled, ErrDeadlineExceeded, or the Cancel
// argument. In every error case the task is dropped without inflating any
// in-flight count.
//
// A nil t is the empty computation (what an algorithm's root constructor
// returns for nothing to do, e.g. a sort of fewer than two elements): it is
// already quiescent, so Spawn returns nil without admitting anything.
func (g *Group) Spawn(t Task) error {
	if t == nil {
		return nil
	}
	_, err := g.s.admitBlocking(g, []*node{g.s.makeNode(t, g)})
	return err
}

// SpawnBatch submits several tasks under a single admission-lock
// acquisition — the batched form of Spawn for clients enqueueing many
// requests at once. The whole batch is validated before any task is
// accounted, so a panic on an invalid task (like Spawn's) leaves no
// inflight count behind. Under admission bounds the batch is admitted in
// FIFO chunks as room frees up (blocking in between); on shutdown or group
// cancellation the unadmitted remainder is dropped and SpawnBatch returns
// the typed reason like Spawn (the already-admitted prefix stays admitted —
// on a canceled group it is revoked at take time like any other node).
func (g *Group) SpawnBatch(ts []Task) error {
	if len(ts) == 0 {
		return nil
	}
	ns := make([]*node, len(ts))
	for i, t := range ts {
		ns[i] = g.s.makeNode(t, g)
	}
	_, err := g.s.admitBlocking(g, ns)
	return err
}

// TrySpawn is the non-blocking form of Spawn: it admits t if the admission
// bounds leave room and returns nil, or returns ErrSaturated (the task is
// dropped, nothing accounted) when they do not, ErrShutdown on a shut-down
// scheduler, or the cancellation cause on a canceled group. It is the safe
// way to submit from latency-sensitive clients and from inside running
// tasks.
func (g *Group) TrySpawn(t Task) error {
	_, err := g.s.admitTry(g, []*node{g.s.makeNode(t, g)})
	return err
}

// TrySpawnBatch is the non-blocking form of SpawnBatch. It admits exactly
// the longest prefix of ts that fits under the admission bounds — admission
// is in submission order and stops at the first task that does not fit, so
// the returned count k means ts[:k] were admitted and ts[k:] were not — and
// returns ErrSaturated if any task was refused. On a shut-down scheduler it
// returns (0, ErrShutdown); on a canceled group (0, cause). Refused tasks
// are dropped without being accounted (their wrapper nodes are recycled);
// the caller may resubmit ts[k:] later. The whole batch is validated up
// front, like SpawnBatch.
func (g *Group) TrySpawnBatch(ts []Task) (int, error) {
	if len(ts) == 0 {
		return 0, nil
	}
	ns := make([]*node, len(ts))
	for i, t := range ts {
		ns[i] = g.s.makeNode(t, g)
	}
	return g.s.admitTry(g, ns)
}

// Wait blocks until the group is quiescent: every task spawned into it (and
// every descendant those tasks spawned) has completed. Other groups' tasks
// do not delay Wait, and waiters park on a completion notification rather
// than spinning, so many idle waiting clients cost no CPU. Like
// Scheduler.Wait it must not be called from inside a running task (a worker
// blocking on external quiescence could deadlock the team protocol); use
// TaskGroup for in-task joins. If the scheduler is shut down while the
// group still has tasks, Wait returns early — the tasks are abandoned (see
// Scheduler.Shutdown) and would never drain. On a canceled group Wait still
// waits for the true drain: started tasks run to completion (observing
// Ctx.Canceled) and never-started nodes are revoked by workers at take
// time, each releasing the in-flight count exactly once — use WaitErr to
// learn how the group ended.
func (g *Group) Wait() {
	for {
		if g.inflight.Load() == 0 || g.s.done.Load() {
			return
		}
		ch := g.qz.gate()
		if g.inflight.Load() == 0 || g.s.done.Load() {
			return
		}
		select {
		case <-ch:
		case <-g.s.doneCh:
		}
	}
}

// Run submits t into the group and waits for the group's quiescence. On a
// fresh group this is exactly the old global Scheduler.Run semantics scoped
// to t's own task tree. It returns WaitErr's verdict (nil on a clean drain,
// the cancellation cause or ErrShutdown otherwise); if the spawn itself is
// refused it returns that reason without waiting. A nil t (see Spawn) makes
// Run the group's WaitErr.
func (g *Group) Run(t Task) error {
	if err := g.Spawn(t); err != nil {
		return err
	}
	return g.WaitErr()
}

// Pending returns the group's current in-flight task count: admitted tasks
// and tasks spawned with Ctx.Spawn that have not completed. Children joined
// through a TaskGroup are not counted — they are part of the task that
// waits for them (racy; for tests and diagnostics).
func (g *Group) Pending() int64 { return g.inflight.Load() }

// PendingInjected returns the group's admitted external tasks no worker has
// started yet — the group's inject-queue depth (racy; for tests and
// diagnostics).
func (g *Group) PendingInjected() int {
	g.s.admitMu.Lock()
	defer g.s.admitMu.Unlock()
	return g.iq.pending()
}
