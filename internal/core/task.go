// Package core implements work-stealing with deterministic team-building,
// the scheduling algorithm of Wimmer & Träff, "Work-stealing for mixed-mode
// parallelism by deterministic team-building" (SPAA 2011).
//
// The scheduler runs p workers. Tasks declare a thread requirement r ≥ 1 at
// spawn time. Tasks with r = 1 are executed exactly as in classical
// work-stealing (local deques, stealing by idle thieves). Tasks with r > 1
// are executed by a team of r consecutively numbered workers. Idle workers
// attempt to join teams by registering at a coordinating worker with a
// single CAS on the coordinator's packed registration word; partners for
// stealing and team-building are chosen deterministically by flipping one
// bit of the worker id per level, so a team for a task of size r always
// consists of the workers k·r … (k+1)·r−1 of the block containing the
// coordinator.
//
// The implementation realizes the paper's Algorithms 1–9 plus all four
// refinements: per-size local queues (Refinement 1, always on), arbitrary
// thread requirements via rounded-up teams (Refinement 2), an arbitrary
// number of workers (Refinement 3), and optional randomized partner
// selection (Refinement 4). Deviations from the paper are documented where
// they are made (the bounded fallback scan: fallbackScan in steal.go).
package core

import (
	"fmt"

	"repro/internal/topo"
	"repro/internal/trace"
)

// Task is a unit of work with a fixed thread requirement.
//
// Run is invoked once on every participating worker: for r = 1 tasks it runs
// on a single worker; for r > 1 tasks it runs simultaneously on all r team
// members, each with a distinct ctx.LocalID() in 0 … r−1. The team members
// may coordinate through ctx.Barrier() and through shared state of the Task
// value itself.
type Task interface {
	// Threads returns the number of workers r ≥ 1 this task requires.
	// It must be constant for a given task value.
	Threads() int
	// Run executes the task. For team tasks it is called concurrently by
	// all participating workers.
	Run(ctx *Ctx)
}

// node is the queue entry wrapping a task; r caches Threads(); group is the
// quiescence group the task was spawned into (the scheduler's root group for
// group-less tasks, never nil). join is the TaskGroup a child spawned through
// TaskGroup.Spawn completes on; it is nil for every other task, which
// completes on group instead — a node has exactly one completion target.
// tid is the trace id of the event that created the task (0 while tracing is
// off); enq is the admission timestamp (trace.Now) of externally submitted
// tasks, consumed by the scheduler's admission-wait histogram at take time.
// gepoch is the group's cancellation epoch observed at admission
// (enqueueLocked, under admitMu); takeInjected revokes the node instead of
// running it when the stamp has gone stale (see cancel.go). Interior spawns
// never read it.
type node struct {
	task   Task
	r      int
	group  *Group
	join   *TaskGroup
	tid    uint64
	enq    int64
	gepoch uint64
}

// funcTask adapts a function to the Task interface.
type funcTask struct {
	r  int
	fn func(*Ctx)
}

func (t *funcTask) Threads() int { return t.r }
func (t *funcTask) Run(ctx *Ctx) { t.fn(ctx) }

// Func returns a Task requiring r threads that executes fn.
func Func(r int, fn func(*Ctx)) Task {
	if r < 1 {
		panic(fmt.Sprintf("core: task thread requirement %d < 1", r))
	}
	return &funcTask{r: r, fn: fn}
}

// Solo returns a classical single-threaded task.
func Solo(fn func(*Ctx)) Task { return Func(1, fn) }

// Ctx is the per-execution context handed to Task.Run. It identifies the
// executing worker, the task's team, and allows spawning further tasks.
//
// A Ctx is only valid for the duration of the Run call it was passed to:
// contexts are recycled on per-worker free lists (the spawn→run hot path
// allocates nothing), so a task must not retain its Ctx after Run returns.
type Ctx struct {
	w       *worker
	exec    *teamExec // nil for r = 1 executions
	localID int
	group   *Group     // quiescence group of the running task
	join    *TaskGroup // TaskGroup the running task is a child of, or nil

	// unjoined counts the children this execution spawned into TaskGroups it
	// is not itself a child of and has not waited for since. Owner-plain;
	// it must be zero when Run returns (see the TaskGroup contract).
	unjoined int
}

// Spawn pushes t onto the executing worker's local queue for the level
// matching t.Threads() (Refinement 1). The spawned task joins the running
// task's group (see Group), so a group's Wait covers the whole descendant
// tree. It panics if the requirement exceeds Scheduler.MaxTeam().
//
//repro:noalloc the public face of the zero-alloc spawn path
func (c *Ctx) Spawn(t Task) { c.w.spawn(t, c.group) }

// Group returns the quiescence group the running task belongs to, or nil
// for tasks spawned outside any group (Scheduler.Spawn). Tasks spawned via
// Ctx.Spawn inherit it automatically; it is exposed so a task can hand its
// group to helpers that spawn on the task's behalf (the Group forms of the
// sorting packages).
func (c *Ctx) Group() *Group {
	if c.group == c.w.sched.root {
		return nil
	}
	return c.group
}

// LocalID returns this worker's id within the task's team, 0 … TeamSize()−1.
// It is 0 for single-threaded tasks.
func (c *Ctx) LocalID() int { return c.localID }

// TeamSize returns the number of workers executing this task together
// (the task's thread requirement r). It is 1 for single-threaded tasks.
func (c *Ctx) TeamSize() int {
	if c.exec == nil {
		return 1
	}
	return c.exec.width
}

// WorkerID returns the global id of the executing worker (0 … p−1).
func (c *Ctx) WorkerID() int { return c.w.id }

// Scheduler returns the scheduler executing this task.
func (c *Ctx) Scheduler() *Scheduler { return c.w.sched }

// Barrier blocks until all TeamSize() workers of this task have reached the
// barrier. It is a no-op for single-threaded tasks. The barrier is reusable
// for any number of phases.
//
//repro:noalloc team phases hit the barrier per chunk; it must stay alloc-free
func (c *Ctx) Barrier() {
	if c.exec == nil {
		return
	}
	c.w.ev(trace.EvBarrierEnter, c.exec.coordID, c.localID, c.exec.tid)
	c.w.barrier(c.exec)
	c.w.ev(trace.EvBarrierLeave, c.exec.coordID, c.localID, c.exec.tid)
}

// TeamLeft returns the global worker id of the team member with LocalID 0.
func (c *Ctx) TeamLeft() int {
	if c.exec == nil {
		return c.w.id
	}
	return topo.TeamLeft(c.exec.coordID, c.exec.teamSize)
}
