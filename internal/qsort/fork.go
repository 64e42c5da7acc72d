package qsort

import (
	"sync"

	"repro/internal/classic"
	"repro/internal/core"
)

// This file implements the task-parallel fork-join Quicksort of the paper's
// Algorithm 10 on both schedulers: the team-building scheduler (the tables'
// "Fork" column) and the randomized baseline work-stealer, whose steal
// policy makes it the "Randfork" or the "Cilk" column. Each partitioning step
// spawns the left subsequence as a new task and continues on the right
// inline (equivalent to the paper's async/async/sync under depth-first
// help-first scheduling, with one task allocation saved per step);
// subsequences below the cutoff are sorted with the sequential STL-style
// sort, exactly as in §5.

// ForkPool recycles the spawn wrappers of the task-parallel quicksort: each
// partitioning step spawns the left subsequence as a forkTask drawn from the
// pool, and the task returns itself to the pool as it starts running (its
// fields are copied out first; the scheduler never touches a task value
// after invoking Run). Together with the scheduler's node free list this
// makes the steady-state fork-join recursion allocation-free — the paper's
// r = 1 "ordinary work-stealing" regime with no per-spawn garbage at all.
//
// It pools the mixed-mode quicksort's team tasks too: an mmTask carries its
// partitioning state (block claimer, fan-in countdown, neutral bitmap) and
// is returned by the team's local id 0 once the step's last spawn is out, so
// the partitioning steps of a warmed sort tree allocate no task state either.
//
// The zero ForkPool is ready to use and serves any number of sort trees of
// one element type at once, whatever their cutoffs and options (a task
// carries its own): a Runtime keeps one for all its requests, so a warmed
// request allocates no task; a root built without one gets a pool of its own.
type ForkPool[T Ordered] struct {
	pool sync.Pool // of *forkTask[T]
	mm   sync.Pool // of *mmTask[T]
}

// forkTask is one pooled spawn of the task-parallel quicksort recursion.
type forkTask[T Ordered] struct {
	fp     *ForkPool[T]
	data   []T
	cutoff int
}

func (t *forkTask[T]) Threads() int { return 1 }

func (t *forkTask[T]) Run(ctx *core.Ctx) {
	fp, data, cutoff := t.fp, t.data, t.cutoff
	t.data = nil
	fp.pool.Put(t)
	fp.run(ctx, data, cutoff)
}

// task wraps data in a recycled (or new) forkTask; cutoff < 2 selects
// DefaultCutoff.
func (fp *ForkPool[T]) task(data []T, cutoff int) *forkTask[T] {
	t, _ := fp.pool.Get().(*forkTask[T])
	if t == nil {
		t = &forkTask[T]{fp: fp}
	}
	if cutoff < 2 {
		cutoff = DefaultCutoff
	}
	t.data, t.cutoff = data, cutoff
	return t
}

// mmTask returns a recycled (or new) mixed-mode task partitioning data with
// np threads; opt has its defaults filled in.
func (fp *ForkPool[T]) mmTask(data []T, np int, opt MMOptions) *mmTask[T] {
	t, _ := fp.mm.Get().(*mmTask[T])
	if t == nil {
		t = &mmTask[T]{fp: fp}
	}
	t.np, t.opt = np, opt
	t.init(data, np, opt.BlockSize)
	return t
}

// Spawn spawns the task-parallel quicksort of data on ctx as a pooled task.
func (fp *ForkPool[T]) Spawn(ctx *core.Ctx, data []T, cutoff int) {
	ctx.Spawn(fp.task(data, cutoff))
}

// run is the quicksort recursion of Algorithm 10 over data: each
// partitioning step spawns the left subsequence as a pooled task and
// continues on the right inline. It returns once the task's own share is
// sorted; the spawned subtasks complete independently, so the whole range
// is sorted at the group's quiescence and no worker ever blocks on it.
func (fp *ForkPool[T]) run(ctx *core.Ctx, data []T, cutoff int) {
	for len(data) > cutoff {
		if ctx.Canceled() {
			// Cooperative cancellation: stop partitioning and spawning; the
			// abandoned range stays unsorted (its client gave up on it).
			return
		}
		s := HoarePartition(data)
		left := data[:s]
		data = data[s:]
		ctx.Spawn(fp.task(left, cutoff))
	}
	Introsort(data)
}

// ForkJoinRoot returns the root task of the task-parallel quicksort over
// data on the team-building scheduler; all its tasks have thread
// requirement 1, so the scheduler degenerates to deterministic
// work-stealing (§3.1). Run it with Scheduler.Run or Group.Run, or spawn it
// into a group beside other roots (Group.Spawn, or Group.SpawnBatch to
// amortize one admission-lock acquisition over many); data is sorted once
// the group is quiescent. It returns nil — the empty computation, which
// Run and Spawn accept — when there is nothing to sort (len(data) < 2). The
// recursion draws its tasks from fp, so with a warm pool it spawns without
// allocating; a nil fp gives the root a pool of its own.
func ForkJoinRoot[T Ordered](fp *ForkPool[T], data []T, cutoff int) core.Task {
	if len(data) < 2 {
		return nil
	}
	if fp == nil {
		fp = new(ForkPool[T])
	}
	return fp.task(data, cutoff)
}

// ForkJoinClassic sorts data with the handwritten task-parallel quicksort
// on the baseline work-stealer — the "Randfork" column under
// classic.StealHalf, the "Cilk" column under classic.StealOne ("a
// handwritten example following the same pattern as the other
// implementations, including the cutoff"). It blocks until done.
func ForkJoinClassic[T Ordered](s *classic.Scheduler, data []T, cutoff int) {
	if cutoff < 2 {
		cutoff = DefaultCutoff
	}
	if len(data) < 2 {
		return
	}
	s.Run(classic.Func(func(ctx *classic.Ctx) { forkClassic(ctx, data, cutoff) }))
}

func forkClassic[T Ordered](ctx *classic.Ctx, data []T, cutoff int) {
	for len(data) > cutoff {
		s := HoarePartition(data)
		left := data[:s]
		data = data[s:]
		ctx.Spawn(classic.Func(func(c *classic.Ctx) { forkClassic(c, left, cutoff) }))
	}
	Introsort(data)
}

// SampleCilk is the "Cilk sample" column: the sample-pivot quicksort variant
// shipped as the Cilk++ example program. It differs from the handwritten
// version by choosing the pivot as the median of a larger sample (which
// costs a little per step but guards against bad pivots) and by spawning
// both subsequences. It runs on a classic.StealOne scheduler and blocks
// until done.
func SampleCilk[T Ordered](s *classic.Scheduler, data []T, cutoff int) {
	if cutoff < 2 {
		cutoff = DefaultCutoff
	}
	if len(data) < 2 {
		return
	}
	s.Run(classic.Func(func(ctx *classic.Ctx) { sampleCilk(ctx, data, cutoff) }))
}

const sampleSize = 15

func sampleCilk[T Ordered](ctx *classic.Ctx, data []T, cutoff int) {
	if len(data) <= cutoff {
		Introsort(data)
		return
	}
	s := samplePartition(data)
	left, right := data[:s], data[s:]
	ctx.Spawn(classic.Func(func(c *classic.Ctx) { sampleCilk(c, left, cutoff) }))
	sampleCilk(ctx, right, cutoff)
}

// samplePartition partitions around the median of sampleSize evenly spaced
// elements, falling back to HoarePartition when the sampled pivot is
// degenerate (split at 0 or n).
func samplePartition[T Ordered](data []T) int {
	n := len(data)
	if n < 4*sampleSize {
		return HoarePartition(data)
	}
	var sample [sampleSize]T
	step := n / sampleSize
	for i := 0; i < sampleSize; i++ {
		sample[i] = data[i*step]
	}
	Introsort(sample[:]) // one smallSort
	pv := sample[sampleSize/2]
	s := PartitionByValue(data, pv)
	if s == 0 || s == n {
		return HoarePartition(data)
	}
	return s
}
