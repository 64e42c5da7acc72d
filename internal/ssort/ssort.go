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
//     member 0 sorts it, selects the k−1 bucket splitters (k a power of two)
//     and lays them out as an implicit search tree, tree[2j] and tree[2j+1]
//     the children of tree[j] (Sanders & Winkel, Super Scalar Sample Sort).
//  2. Each member counts its chunk straight into its row of par.Hist's
//     per-(member, bucket) matrix by walking the tree — j = 2j + (tree[j] ≤
//     v), log k steps, bucket j−k: a comparison is a number added to the
//     index, never a jump (a binary search on random keys mispredicts every
//     other step) — and par.Hist.Merge sums the bucket totals at the barrier.
//  3. Each member sums its private write cursors from the bucket totals and
//     the rows of the members before it (par.Hist.Cursors, no barrier),
//     walks the tree a second time for every element of its chunk and
//     scatters it into scratch — stable and write-conflict-free by
//     construction. No bucket-id array is kept between the two walks:
//     classifying twice read 1.82 / 33.7 ms at 2^16 / 2^20 int32 against
//     1.78 / 32.0 ms with the ids in a []uint8, not worth n bytes.
//  4. After a team copy-back, member 0 spawns one sorting task per bucket:
//     large buckets recurse as new samplesort team tasks (thread
//     requirement chosen like the paper's getBestNp), medium buckets run
//     the task-parallel quicksort (qsort.ForkPool), and buckets at or below
//     the cutoff fall back to the sequential sort. The other members
//     become available as soon as the scatter completes, exactly like the
//     partitioning teams of Algorithm 11.
//
// Scratch and state live for one team step, the only part of the sort that
// works out of place: member 0 borrows the scratch from the sort tree's
// qsort.ForkPool once the splitters are chosen and returns it after the
// copy-back, so P workers hold at most ⌊P/2⌋ buffers however many sorts run;
// the task, with its sample, tree and histogram, goes back to the pool after
// the last spawn.
//
// Degenerate inputs (a sample of identical keys, or a bucket that swallows
// the whole range) fall back to the task-parallel quicksort, whose Hoare
// partition guarantees progress on constant data.
package ssort

import (
	"math/bits"
	"slices"

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
	// BucketsPerThread is the number of buckets per team member (default
	// 4); a team task rounds its bucket count up to a power of two.
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
// quiescent (all bucket recursion subtasks inherit it). It returns nil — the
// empty computation, which Run and Spawn accept — when there is nothing to
// sort.
//
// The sort tree draws its tasks and its team steps' scratch from fp (see
// qsort.ForkPool; nil: a pool of the root's own).
func Root[T qsort.Ordered](fp *qsort.ForkPool[T], maxTeam int, data []T, opt Options) core.Task {
	opt = opt.withDefaults()
	n := len(data)
	if n < 2 {
		return nil
	}
	if fp == nil {
		fp = new(qsort.ForkPool[T])
	}
	np := core.BestNp(n, opt.MinPerThread, maxTeam)
	if np == 1 {
		// Too small for a team: the task-parallel quicksort is the
		// degenerate samplesort (every element its own bucket recursion).
		return qsort.ForkJoinRoot(fp, data, opt.Cutoff)
	}
	return newTask(fp, data, np, opt)
}

// task is one samplesort team task over data, drawn from fp.Teams and
// returned by local id 0 after its last spawn.
type task[T qsort.Ordered] struct {
	data    []T
	scratch []T // borrowed from fp by member 0 for steps 3 and 4
	np      int
	opt     Options
	fp      *qsort.ForkPool[T] // shared by the whole sort tree

	sample     []T
	tree       []T  // search tree of the splitters in tree[1:], one slot per bucket; written by member 0
	degenerate bool // sample all-equal, written by member 0

	hist par.Hist
}

// newTask returns a recycled (or new) team step over data with np members.
func newTask[T qsort.Ordered](fp *qsort.ForkPool[T], data []T, np int, opt Options) *task[T] {
	nb := 1 << bits.Len(uint(np*opt.BucketsPerThread-1)) // np ≥ 2: at least two buckets
	ss := min(nb*opt.Oversample, len(data))
	t, _ := fp.Teams.Get().(*task[T])
	if t == nil {
		t = &task[T]{fp: fp}
	}
	t.data, t.np, t.opt = data, np, opt
	t.sample = slices.Grow(t.sample[:0], ss)[:ss]
	t.tree = slices.Grow(t.tree[:0], nb)[:nb]
	t.hist.Init(np, nb)
	return t
}

func (t *task[T]) Threads() int { return t.np }

// buildTree lays nb−1 splitters of the sorted sample out as the tree classify
// walks: the i-th node of depth d, tree[2^d+i], holds the splitter of rank
// (2i+1)·nb/2^(d+1) − 1. Duplicates leave the buckets between them empty.
func buildTree[T qsort.Ordered](tree, sample []T) {
	nb, ss := len(tree), len(sample)
	for first := 1; first < nb; first *= 2 { // first node of each depth
		for i := 0; i < first; i++ {
			rank := (2*i+1)*nb/(2*first) - 1
			tree[first+i] = sample[(rank+1)*ss/nb]
		}
	}
}

// classify returns the bucket of v, the number of splitters ≤ v, in
// log2(len(tree)) steps none of which jumps on v (par.B2i: SETcc, which
// its //repro:asm line holds every int32 copy to, the benchmark's too).
func classify[T qsort.Ordered](tree []T, v T) int {
	j, k := 1, len(tree)
	for j < k {
		j = 2*j + par.B2i(tree[j] <= v) //repro:asm cmp
	}
	return j - k
}

// count and scatter are the two walks over a member's chunk: bucket sizes
// into row, elements to their buckets' cursors in dst. Functions of their own
// because, inlined into Run, the walk spills its index at every step.
//
//go:noinline
func count[T qsort.Ordered](tree, chunk []T, row []int) {
	clear(row)
	for _, v := range chunk {
		row[classify(tree, v)]++ //repro:asm cmp
	}
}

//go:noinline
func scatter[T qsort.Ordered](tree, chunk []T, cur []int, dst []T) {
	for _, v := range chunk {
		b := classify(tree, v) //repro:asm cmp
		dst[cur[b]] = v
		cur[b]++
	}
}

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
		buildTree(t.tree, t.sample)
		t.degenerate = t.sample[0] == t.sample[ss-1]
		if !t.degenerate {
			t.scratch = t.fp.Borrow(n)
		}
	}
	ctx.Barrier()
	if t.degenerate {
		// Every sampled key is equal: bucketing would pile (nearly) the
		// whole range into one bucket. Hand the range to the task-parallel
		// quicksort, whose Hoare partition guarantees progress. t is not
		// recycled: a member may not have read t.degenerate yet.
		if lid == 0 {
			t.spawnFork(ctx, t.data)
		}
		return
	}

	// Step 2: per-(member, bucket) histogram of the static chunks.
	lo, hi := par.Chunk(lid, w, n)
	chunk, tree := t.data[lo:hi], t.tree
	count(tree, chunk, t.hist.Row(lid))
	t.hist.Merge(ctx)

	// Step 3: scatter. Each member reserves its own region inside every
	// bucket (bucket start + what earlier members counted there), so the
	// writes are conflict-free and the compaction is stable.
	scatter(tree, chunk, t.hist.Cursors(lid), t.scratch) // the chunk step 2 counted
	ctx.Barrier()

	// Step 4: copy back, then member 0 returns the scratch and spawns the
	// bucket sorts, which lie in bucket order; the other members become
	// available immediately (Algorithm 11's idiom).
	ctx.TeamFor(n, func(lo, hi int) {
		copy(t.data[lo:hi], t.scratch[lo:hi])
	})
	if lid != 0 {
		return
	}
	t.fp.Return(t.scratch)
	blo := 0
	for _, size := range t.hist.Totals() {
		bhi := blo + size
		t.spawnBucket(ctx, t.data[blo:bhi])
		blo = bhi
	}
	// Every member passed the copy-back barrier after its last access to t,
	// so nobody else uses t now.
	t.data, t.scratch = nil, nil
	t.fp.Teams.Put(t)
}

// spawnBucket spawns the sort of one bucket with a thread requirement
// chosen like the paper's getBestNp: team tasks recurse as samplesorts,
// single-threaded buckets run the task-parallel quicksort, and buckets at
// or below the cutoff are sorted sequentially.
func (t *task[T]) spawnBucket(ctx *core.Ctx, part []T) {
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
		t.fp.Spawn(ctx, part, t.opt.Cutoff)
		return
	}
	np := core.BestNp(m, t.opt.MinPerThread, ctx.Scheduler().MaxTeam())
	// m < len(t.data) guarantees termination: a bucket that swallowed the
	// whole range (heavily duplicated keys) must not recurse as a
	// samplesort again.
	if np > 1 && m < len(t.data) {
		ctx.Spawn(newTask(t.fp, part, np, t.opt))
		return
	}
	t.spawnFork(ctx, part)
}

func (t *task[T]) spawnFork(ctx *core.Ctx, part []T) {
	if ctx.Canceled() {
		return // cooperative cancellation: see spawnBucket
	}
	t.fp.Spawn(ctx, part, t.opt.Cutoff)
}
