package core

import "sync"

// Node recycling.
//
// Every spawned task is wrapped in a node for the queues. With one node
// heap-allocated per spawn, a fork-join sort of n elements allocates
// Θ(n/cutoff) nodes — pure GC pressure on the hottest path in the repo.
// Nodes are instead recycled: the worker that completes a task puts the node
// on its own free list (owner-only, no synchronization), and the next
// spawn pops it back off. The list is bounded; overflow spills in batches to
// a shared sync.Pool, which rebalances when spawner and runner are
// persistently different workers. Nodes come only from the workers' lists:
// an external submission is queued as a plain entry (admission.go) and the
// worker that takes it wraps it in a node of its own.
//
// Recycling is safe against stale deque references: a Chase–Lev slot
// retains a pointer to a popped node until the ring wraps around, but
// thieves dereference a slot's value only after winning the top CAS, which
// cannot succeed for an index that was already popped. The deque does not
// clear the slot (internal/deque); freeNode clears the node instead, so the
// ring retains at most an empty node, never a completed task.

const (
	// nodeFreeCap bounds a worker's free list.
	nodeFreeCap = 256
	// nodeFreeLow is the level a full list is trimmed to; the spilled batch
	// goes to the shared pool.
	nodeFreeLow = 128
	// ctxFreeCap bounds a worker's Ctx free list. Depth = nesting of
	// task executions on one worker (TaskGroup.Wait helping inside a
	// running task), which is shallow in practice.
	ctxFreeCap = 64
)

// sharedNodes is the overflow pool behind the per-worker free lists.
var sharedNodes = sync.Pool{New: func() any { return new(node) }}

// getNode returns a cleared node: from the worker's own free list if
// possible (the steady-state interior path — no locks, no allocation),
// otherwise from the shared pool.
//
//repro:noalloc steady-state spawns must recycle, never allocate
func (w *worker) getNode() *node {
	if k := len(w.free) - 1; k >= 0 {
		n := w.free[k]
		w.free[k] = nil
		w.free = w.free[:k]
		return n
	}
	return sharedNodes.Get().(*node)
}

// freeNode recycles n after its task completed (or was handed off to a team
// execution). The reference fields are cleared so a parked node never
// retains a finished task or its captured buffers.
//
//repro:noalloc runs once per task completion
func (w *worker) freeNode(n *node) {
	n.task, n.group, n.join, n.tid = nil, nil, nil, 0
	if len(w.free) < nodeFreeCap {
		w.free = append(w.free, n) //repro:allow capacity-bounded by nodeFreeCap; grows only until warm
		return
	}
	for i := nodeFreeLow; i < len(w.free); i++ {
		sharedNodes.Put(w.free[i])
		w.free[i] = nil
	}
	w.free = w.free[:nodeFreeLow]
	w.freeLen.Store(nodeFreeLow)
	sharedNodes.Put(n)
}

// getCtx returns a task execution context from the worker's free list. A
// stack-allocated Ctx would be free, but &ctx passed to an interface
// method always escapes, so without recycling every task execution heap-
// allocates one Ctx. Owner-only; nested executions (a TaskGroup.Wait
// helping inside a running task) simply draw additional contexts.
//
//repro:noalloc runs once per task execution
func (w *worker) getCtx() *Ctx {
	if k := len(w.ctxFree) - 1; k >= 0 {
		c := w.ctxFree[k]
		w.ctxFree = w.ctxFree[:k]
		return c
	}
	return new(Ctx) //repro:allow cold refill; steady state always hits the free list
}

// putCtx recycles c after Task.Run returned. Tasks must not retain their
// context beyond Run (see the Ctx contract in task.go). It is also where the
// TaskGroup contract is enforced: a task that returns with children it
// spawned into a TaskGroup and never waited for would let its group's count
// reach zero while they still run.
//
//repro:noalloc runs once per task execution
func (w *worker) putCtx(c *Ctx) {
	if c.unjoined != 0 {
		contractPanic("core: task returned without TaskGroup.Wait for the children it spawned (see the TaskGroup contract)")
	}
	*c = Ctx{}
	if len(w.ctxFree) < ctxFreeCap {
		w.ctxFree = append(w.ctxFree, c) //repro:allow capacity-bounded by ctxFreeCap; grows only until warm
	}
}
