package core

// Node recycling.
//
// Every spawned task is wrapped in a node for the queues. With one node
// heap-allocated per spawn, a fork-join sort of n elements allocates
// Θ(n/cutoff) nodes — pure GC pressure on the hottest path in the repo.
// Nodes are instead recycled on a freelist.List of the scheduler: the worker
// that completes a task puts the node on its own stack (owner-only, no
// synchronization), and the next spawn pops it back off. A full stack spills
// a batch to the list's shared level and an empty one refills a batch from
// it, which rebalances when spawner and runner are persistently different
// workers. Unlike the pool of package sync, no collection empties either
// level, so a warmed scheduler allocates a node only when more tasks are out
// at once than ever before. Nodes come only from the workers' stacks: an external
// submission is queued as a plain entry (admission.go) and the worker that
// takes it wraps it in a node of its own.
//
// Recycling is safe against stale deque references: a Chase–Lev slot
// retains a pointer to a popped node until the ring wraps around, but
// thieves dereference a slot's value only after winning the top CAS, which
// cannot succeed for an index that was already popped. The deque does not
// clear the slot (internal/deque); freeNode clears the node instead, so the
// ring retains at most an empty node, never a completed task.

// ctxFreeCap bounds a worker's Ctx free list. Depth = nesting of task
// executions on one worker (TaskGroup.Wait helping inside a running task),
// which is shallow in practice.
const ctxFreeCap = 64

// getNode returns a cleared node: from the worker's own stack if possible
// (the steady-state interior path — no locks, no allocation), otherwise from
// the scheduler's shared level, and a new one only when both are empty.
//
//repro:noalloc steady-state spawns must recycle, never allocate
func (w *worker) getNode() *node {
	if n, ok := w.free.Get(&w.sched.nodes); ok {
		return n
	}
	return new(node) //repro:allow cold path: the stack and the shared level are both empty
}

// freeNode recycles n after its task completed (or was handed off to a team
// execution). The reference fields are cleared so a recycled node never
// retains a finished task or its captured buffers.
//
//repro:noalloc runs once per task completion
func (w *worker) freeNode(n *node) {
	n.task, n.group, n.join, n.tid = nil, nil, nil, 0
	w.free.Put(&w.sched.nodes, n)
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
