// Package ssort implements a mixed-mode parallel samplesort on the
// team-building scheduler — a second mixed-mode sorting algorithm beside
// the paper's Quicksort (Algorithm 11), structurally different: instead of
// recursive binary partitioning, one team task splits its range into many
// buckets at once and the recursion fans out task-parallel over the
// buckets.
//
// The algorithm is built entirely from the team-parallel primitives of
// internal/par, demonstrating the paper's thesis that deterministically
// built teams make data-parallel kernels compositional inside task-parallel
// computations:
//
//  1. The team gathers an evenly spaced sample cooperatively (TeamFor);
//     member 0 sorts it and selects the bucket splitters.
//  2. par.Hist counts each member's chunk into the per-(member, bucket)
//     matrix and merges the bucket totals at the team barrier.
//  3. par.Scanner.Exclusive turns the bucket totals into bucket start
//     offsets (the two-phase block scan).
//  4. Each member computes its private write cursors from the count matrix
//     and scatters its chunk into the scratch buffer — stable and
//     write-conflict-free by construction.
//  5. After a team copy-back, member 0 spawns one sorting task per bucket:
//     large buckets recurse as new samplesort team tasks (thread
//     requirement chosen like the paper's getBestNp), medium buckets run
//     the task-parallel quicksort (qsort.ForkPool), and buckets at or below
//     the cutoff fall back to the sequential sort. The other members
//     become available as soon as the scatter completes, exactly like the
//     partitioning teams of Algorithm 11.
//
// Degenerate inputs (a sample of identical keys, or a bucket that swallows
// the whole range) fall back to the task-parallel quicksort, whose Hoare
// partition guarantees progress on constant data.
package ssort

import (
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/qsort"
)

// Options are the tunables of the mixed-mode samplesort. Zero values select
// the defaults.
type Options struct {
	// Cutoff is the bucket length at or below which the sequential sort
	// takes over (default 512, the paper's quicksort cutoff).
	Cutoff int
	// MinPerThread is the minimum number of elements per team member of a
	// samplesort task (default 1 << 15); it plays the role of the paper's
	// getBestNp block quota.
	MinPerThread int
	// BucketsPerThread is the number of buckets per team member (default 4).
	BucketsPerThread int
	// Oversample is the number of sample elements per bucket used to select
	// splitters (default 8).
	Oversample int
}

func (o Options) withDefaults() Options {
	if o.Cutoff < 2 {
		o.Cutoff = qsort.DefaultCutoff
	}
	if o.MinPerThread < 1 {
		o.MinPerThread = 1 << 15
	}
	if o.BucketsPerThread < 1 {
		o.BucketsPerThread = 4
	}
	if o.Oversample < 1 {
		o.Oversample = 8
	}
	return o
}

// Root returns the root task of the mixed-mode samplesort over data (the
// tables' "SSort" column); maxTeam is the target scheduler's
// Scheduler.MaxTeam(). Run it with Scheduler.Run or Group.Run, or spawn it
// into a group beside other work; data is sorted once the group is
// quiescent (all bucket recursion subtasks inherit it). The algorithm is
// not in-place: Root allocates one scratch buffer of len(data), whose
// ranges are reused down the bucket recursion. It returns nil — the empty
// computation, which Run and Spawn accept — when there is nothing to sort.
func Root[T qsort.Ordered](maxTeam int, data []T, opt Options) core.Task {
	opt = opt.withDefaults()
	n := len(data)
	if n < 2 {
		return nil
	}
	np := core.BestNp(n, opt.MinPerThread, maxTeam)
	if np == 1 {
		// Too small for a team: the task-parallel quicksort is the
		// degenerate samplesort (every element its own bucket recursion).
		return qsort.ForkJoinRoot(data, opt.Cutoff)
	}
	scratch := make([]T, n)
	// One fork-task pool serves every sequential bucket and fork-join
	// fallback of this sort tree (see qsort.ForkPool), so the task-parallel
	// fan-out below the team phases spawns without allocating.
	return newTask(data, scratch, np, opt, qsort.NewForkPool[T](opt.Cutoff))
}

// task is one samplesort team task over data; scratch is a disjoint buffer
// of the same length used for the bucket scatter.
type task[T qsort.Ordered] struct {
	data, scratch []T
	np            int
	opt           Options
	fp            *qsort.ForkPool[T] // shared by the whole sort tree

	nb         int // bucket count
	sample     []T
	splitters  []T  // nb−1 sorted splitters, written by member 0
	degenerate bool // sample all-equal, written by member 0

	hist   *par.Hist
	scan   *par.Scanner[int]
	starts []int   // bucket start offsets after the exclusive scan
	curs   [][]int // per-member scatter cursors (row per member, no sharing)
}

func newTask[T qsort.Ordered](data, scratch []T, np int, opt Options, fp *qsort.ForkPool[T]) *task[T] {
	nb := np * opt.BucketsPerThread
	ss := nb * opt.Oversample
	if ss > len(data) {
		ss = len(data)
	}
	curs := make([][]int, np)
	for m := range curs {
		curs[m] = make([]int, nb)
	}
	return &task[T]{
		data: data, scratch: scratch, np: np, opt: opt, fp: fp,
		nb:        nb,
		sample:    make([]T, ss),
		splitters: make([]T, nb-1),
		hist:      par.NewHist(np, nb),
		scan:      par.NewScanner(np, 0, func(a, b int) int { return a + b }),
		starts:    make([]int, nb),
		curs:      curs,
	}
}

func (t *task[T]) Threads() int { return t.np }

func (t *task[T]) Run(ctx *core.Ctx) {
	w, lid := ctx.TeamSize(), ctx.LocalID()
	n := len(t.data)

	// Step 1: cooperative evenly spaced sample, then splitter selection on
	// member 0 (the sample is tiny; sorting it in parallel would cost more
	// in barriers than it saves).
	ss := len(t.sample)
	ctx.TeamFor(ss, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			t.sample[j] = t.data[j*n/ss]
		}
	})
	if lid == 0 {
		qsort.Introsort(t.sample)
		for j := range t.splitters {
			t.splitters[j] = t.sample[(j+1)*ss/t.nb]
		}
		t.degenerate = t.sample[0] == t.sample[ss-1]
	}
	ctx.Barrier()
	if t.degenerate {
		// Every sampled key is equal: bucketing would pile (nearly) the
		// whole range into one bucket. Hand the range to the task-parallel
		// quicksort, whose Hoare partition guarantees progress.
		if lid == 0 {
			t.spawnFork(ctx, t.data)
		}
		return
	}

	// Step 2: per-(member, bucket) histogram of the static chunks.
	t.hist.Histogram(ctx, n, func(i int) int {
		return bucketIndex(t.splitters, t.data[i])
	})

	// Step 3: bucket start offsets — copy the totals and scan exclusively
	// (team-parallel; the totals stay intact for the bucket sizes).
	totals := t.hist.Totals()
	ctx.TeamFor(t.nb, func(lo, hi int) {
		copy(t.starts[lo:hi], totals[lo:hi])
	})
	t.scan.Exclusive(ctx, t.starts)

	// Step 4: scatter. Each member reserves its own region inside every
	// bucket (bucket start + what earlier members counted there), so the
	// writes are conflict-free and the compaction is stable.
	cur := t.curs[lid]
	t.hist.Cursors(lid, t.starts, cur)
	lo, hi := par.Chunk(lid, w, n) // must match par.Hist's counting chunks
	for i := lo; i < hi; i++ {
		b := bucketIndex(t.splitters, t.data[i])
		t.scratch[cur[b]] = t.data[i]
		cur[b]++
	}
	ctx.Barrier()

	// Step 5: copy back, then member 0 spawns the bucket sorts; the other
	// members become available immediately (Algorithm 11's idiom).
	ctx.TeamFor(n, func(lo, hi int) {
		copy(t.data[lo:hi], t.scratch[lo:hi])
	})
	if lid != 0 {
		return
	}
	for b := 0; b < t.nb; b++ {
		blo := t.starts[b]
		bhi := blo + totals[b]
		t.spawnBucket(ctx, t.data[blo:bhi], t.scratch[blo:bhi])
	}
}

// spawnBucket spawns the sort of one bucket with a thread requirement
// chosen like the paper's getBestNp: team tasks recurse as samplesorts,
// single-threaded buckets run the task-parallel quicksort, and buckets at
// or below the cutoff are sorted sequentially.
func (t *task[T]) spawnBucket(ctx *core.Ctx, part, scratch []T) {
	m := len(part)
	if m < 2 || ctx.Canceled() {
		// Cooperative cancellation, checked on member 0's spawn path only
		// (never inside the barrier-synchronized phases above): a canceled
		// sort stops recursing and leaves its buckets unsorted.
		return
	}
	if m <= t.opt.Cutoff {
		// At or below the cutoff the pooled fork task degenerates to one
		// sequential Introsort — same wrapper, no closure allocation.
		t.fp.Spawn(ctx, part)
		return
	}
	np := core.BestNp(m, t.opt.MinPerThread, ctx.Scheduler().MaxTeam())
	// m < len(t.data) guarantees termination: a bucket that swallowed the
	// whole range (heavily duplicated keys) must not recurse as a
	// samplesort again.
	if np > 1 && m < len(t.data) {
		ctx.Spawn(newTask(part, scratch, np, t.opt, t.fp))
		return
	}
	t.spawnFork(ctx, part)
}

func (t *task[T]) spawnFork(ctx *core.Ctx, part []T) {
	if ctx.Canceled() {
		return // cooperative cancellation: see spawnBucket
	}
	t.fp.Spawn(ctx, part)
}

// bucketIndex returns the bucket of v: the number of splitters ≤ v, found
// by binary search. Splitters need not be distinct — duplicated splitters
// simply leave the buckets between the copies empty.
func bucketIndex[T qsort.Ordered](splitters []T, v T) int {
	lo, hi := 0, len(splitters)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if splitters[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
