package core

import (
	"sync/atomic"

	"repro/internal/backoff"
)

// TaskGroup provides a fork/join-style sync for single-threaded subtasks
// (the `sync` statement of the paper's Algorithm 10). Waiting does not block
// the worker: it helps by executing queued single-threaded tasks until the
// group drains.
//
// Contract: a task that spawns into a TaskGroup must call Wait on it before
// its Run returns — Cilk's implicit sync at the end of a procedure, made
// explicit. The one exception is a task that is itself a child of the
// TaskGroup (it may add siblings; the parent's Wait covers them). A joined
// child completes on the TaskGroup's counter alone and is not counted in
// its Group's in-flight count (Group.Pending): it is covered by the
// in-flight unit of the task that waits for it, which is what makes the
// contract load-bearing — a spawner that returned un-joined would let
// Group.Wait release while its children still run. The scheduler checks the
// contract when Run returns and panics on a violation.
//
// Restriction: only tasks with Threads() == 1 may be spawned through a
// TaskGroup. A worker waiting inside a task cannot join or coordinate teams
// (doing so from within a running task would deadlock the member protocol),
// so multi-threaded children must be fire-and-forget — exactly how the
// paper's mixed-mode Quicksort uses them.
//
// Rule: one waiting parent per TaskGroup at a time. A TaskGroup may be
// reused by any number of parents, on any workers, one after the other —
// the next parent's first Spawn must come after the previous parent's Wait
// returned — but two tasks must not spawn into it or wait on it
// concurrently, except that its own children may add siblings.
type TaskGroup struct {
	// pending counts the children whose spawn or completion crossed
	// workers: spawned by a child running away from the owner, or completed
	// by a thief. Children spawned and completed on the owner — the parent's
	// worker — move local, which only the owner touches, so a joined child
	// that never leaves its worker writes no atomic here. Either count may
	// go negative; their sum is the number of children in flight, and Wait
	// folds local into pending before it returns.
	pending atomic.Int64
	owner   *worker // set by the parent's Spawn, written only when it changes
	local   int64
}

// Spawn submits t as part of the group. t.Threads() must be 1. The child
// inherits the running task's Group (for Ctx.Group, Ctx.Canceled, and the
// detached Ctx.Spawns it makes) but completes on the TaskGroup only. When
// the caller reuses the child Task value, a steady-state spawn+join
// allocates nothing.
//
//repro:noalloc the joined-child spawn path; TestTaskGroupZeroAlloc pins it
func (g *TaskGroup) Spawn(ctx *Ctx, t Task) {
	if t.Threads() != 1 {
		contractPanic("core: TaskGroup supports only single-threaded tasks (see doc)")
	}
	w := ctx.w
	if ctx.join != g {
		ctx.unjoined++
		if g.owner != w {
			g.owner = w
		}
	}
	if g.owner == w {
		g.local++
	} else {
		g.pending.Add(1)
	}
	w.pushTask(t, 1, ctx.group, g)
}

// done reports the completion of one of g's children on w. Away from the
// owner it is the child's last access to g, after w's stats are published:
// the owner's Wait may return the moment pending shows it.
//
//repro:noalloc runs once per joined child
func (g *TaskGroup) done(w *worker) {
	if g.owner == w {
		g.local--
		return
	}
	w.flushStats()
	g.pending.Add(-1)
}

// contractPanic reports a violated TaskGroup contract. It stays out of line
// because a panic argument escapes to the heap where the panic is written,
// and its callers are //repro:noalloc.
//
//go:noinline
func contractPanic(msg string) { panic(msg) }

// Go submits fn as a single-threaded task of the group.
func (g *TaskGroup) Go(ctx *Ctx, fn func(*Ctx)) {
	g.Spawn(ctx, Solo(fn))
}

// Wait returns once every task spawned through the group (including tasks
// spawned by other workers into the same group) has completed. While
// waiting, the calling worker executes single-threaded tasks from its own
// queue and steals single-threaded tasks from others.
func (g *TaskGroup) Wait(ctx *Ctx) {
	ctx.unjoined = 0
	w := ctx.w
	var bo backoff.Backoff
	for g.local+g.pending.Load() > 0 {
		if n := w.queues[0].PopBottom(); n != nil {
			w.runSolo(n)
			bo.Reset()
			continue
		}
		if w.stealSoloOnly() {
			bo.Reset()
			continue
		}
		bo.Wait()
	}
	if g.local != 0 {
		// A child crossed workers: hand the next parent a zero local.
		g.pending.Add(g.local)
		g.local = 0
	}
}

// stealSoloOnly steals only single-threaded tasks and never registers for
// teams: safe to call from inside a running task (used by TaskGroup.Wait).
func (w *worker) stealSoloOnly() bool {
	s := w.sched
	for l := 0; l < s.topo.Levels; l++ {
		x := w.partnerAt(l)
		if x == nil {
			continue
		}
		sz := x.queues[0].Size()
		if sz == 0 {
			continue
		}
		last, nst := stealSolo(w, x, w.stealCount(sz, l))
		if nst == 0 {
			continue
		}
		w.st.Steals.Add(1)
		w.st.TasksStolen.Add(int64(nst))
		if nst > 1 && s.park.n.Load() != 0 {
			w.wakeThief(w, 0) // all but the last landed in w's own queue
		}
		w.runSolo(last)
		return true
	}
	return false
}

func stealSolo(w, x *worker, cnt int) (*node, int) {
	last, n := (*node)(nil), 0
	for n < cnt {
		v := x.queues[0].PopTop()
		if v == nil {
			break
		}
		if last != nil {
			w.queues[0].PushBottom(last)
		}
		last = v
		n++
	}
	return last, n
}
