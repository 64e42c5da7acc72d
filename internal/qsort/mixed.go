package qsort

import (
	"repro/internal/core"
	"repro/internal/par"
)

// This file implements the mixed-mode parallel Quicksort of the paper's
// Algorithm 11: a data-parallel partitioning step executed by a team of np
// threads (the block-neutralization scheme of Tsigas & Zhang, reference [18]
// of the paper, §5), after which the thread with local id 0 spawns the two
// subsequences as new tasks whose thread requirement is chosen by
// getBestNp. When a task's requirement reaches 1, it degenerates to the
// task-parallel quicksort of Algorithm 10.

// MMOptions are the tunable parameters of the mixed-mode quicksort (§5).
// Zero values select the paper's defaults.
type MMOptions struct {
	// Cutoff is the subsequence length below which the sequential STL-style
	// sort takes over (default 512).
	Cutoff int
	// BlockSize is the element count per partitioning block (default 4096).
	BlockSize int
	// MinBlocksPerThread controls getBestNp: a partitioning thread must have
	// at least this many blocks to work on (default 128).
	MinBlocksPerThread int
}

func (o MMOptions) withDefaults() MMOptions {
	if o.Cutoff < 2 {
		o.Cutoff = DefaultCutoff
	}
	if o.BlockSize < 1 {
		o.BlockSize = DefaultBlockSize
	}
	if o.MinBlocksPerThread < 1 {
		o.MinBlocksPerThread = DefaultMinBlocksPerThread
	}
	return o
}

// bestNp is getBestNp with the quicksort's quota: each partitioning thread
// must have at least MinBlocksPerThread blocks to work on.
func (o MMOptions) bestNp(n, maxTeam int) int {
	return core.BestNp(n, o.BlockSize*o.MinBlocksPerThread, maxTeam)
}

// MixedModeRoot returns the root task of the mixed-mode quicksort over data
// (the tables' "MMPar" column); maxTeam is the target scheduler's
// Scheduler.MaxTeam(). Run or spawn it like ForkJoinRoot — all recursive
// subtasks, fork-join fallbacks included, inherit the root's group, and every
// task-parallel fallback of the sort tree draws its tasks from fp (nil: a
// pool of the root's own). It returns nil when there is nothing to sort.
func MixedModeRoot[T Ordered](fp *ForkPool[T], maxTeam int, data []T, opt MMOptions) core.Task {
	opt = opt.withDefaults()
	if len(data) < 2 {
		return nil
	}
	if fp == nil {
		fp = new(ForkPool[T])
	}
	np := opt.bestNp(len(data), maxTeam)
	if np == 1 {
		// Algorithm 11 line 1: "if np = 1 then return qsort(data, n)".
		return ForkJoinRoot(fp, data, opt.Cutoff)
	}
	return fp.mmTask(-1, data, np, opt)
}

// mmTask is one mixed-mode quicksort task: a data-parallel partitioning of
// its subsequence by a team of np threads, followed by two spawned subtasks.
// It is drawn from its ForkPool and returned by local id 0 after its last
// spawn, with its partitioning state, so a warmed sort tree allocates no
// task state of its own.
type mmTask[T Ordered] struct {
	parState[T]
	np   int
	opt  MMOptions
	fp   *ForkPool[T] // the pool the task returns to; shared across the sort tree
	root bool         // drawn from the shared level (see ReturnTo)
}

func (t *mmTask[T]) Threads() int { return t.np }

func (t *mmTask[T]) Run(ctx *core.Ctx) {
	t.phase1()
	ctx.Barrier()
	if ctx.LocalID() != 0 {
		// Algorithm 11: only the thread with local id 0 continues after the
		// partitioning step; the other team members become available for the
		// next task as soon as the coordinator hands one out. A member touches
		// neither t nor its state after the barrier.
		return
	}
	split := t.cleanup()
	data := t.data
	if split == 0 || split == len(data) {
		// Degenerate pivot (can only happen with an extremal pivot value,
		// e.g. heavily duplicated input): the value-based parallel partition
		// cannot guarantee progress, so fall back to the task-parallel sort,
		// whose Hoare partition can.
		t.spawnFork(ctx, data)
	} else {
		t.spawnPart(ctx, data[:split])
		t.spawnPart(ctx, data[split:])
	}
	// Every member reached the barrier after its last access to t, so
	// nobody else uses t now.
	t.data = nil
	t.fp.mms.Put(ReturnTo(ctx, t.root), t)
}

// spawnPart spawns one partitioned subsequence with the thread requirement
// chosen by getBestNp (Algorithm 11 lines 6–7). The cancellation check sits
// here — on local id 0's single-member spawn path, never inside the
// collective phases — so a canceled sort stops growing its tree without
// desynchronizing the team's barrier.
func (t *mmTask[T]) spawnPart(ctx *core.Ctx, part []T) {
	if len(part) < 2 || ctx.Canceled() {
		return
	}
	np := t.opt.bestNp(len(part), ctx.Scheduler().MaxTeam())
	if np == 1 {
		t.spawnFork(ctx, part)
		return
	}
	ctx.Spawn(t.fp.mmTask(ctx.WorkerID(), part, np, t.opt))
}

func (t *mmTask[T]) spawnFork(ctx *core.Ctx, part []T) {
	if ctx.Canceled() {
		return // cooperative cancellation: see spawnPart
	}
	t.fp.Spawn(ctx, part, t.opt.Cutoff)
}

// parState is the shared state of one data-parallel partitioning step.
// The array is divided into nb full blocks of blockSize elements plus a
// trailing partial block handled by the sequential cleanup. Team threads
// acquire fresh blocks from the two ends (the par.Claimer end-pointer
// acquisition) and neutralize pairs of blocks; the cleanup (thread 0)
// pairs leftover blocks, compacts the at most np unfinished blocks per
// side next to the middle with whole-block content swaps, and finishes
// with a sequential partition of the remaining middle.
type parState[T Ordered] struct {
	data  []T
	pv    T
	block int
	nb    int

	claim   par.Claimer // two-ended block acquisition
	neutral []bool      // per block; owner-written, read after the team's barrier
}

// init sets ps up for partitioning data (at least two elements), reusing
// the neutral bitmap of a previous step when it is long enough.
func (ps *parState[T]) init(data []T, blockSize int) {
	n := len(data)
	ps.data = data
	ps.pv = med3(data[0], data[n/2], data[n-1])
	ps.block = blockSize
	ps.nb = n / blockSize
	ps.claim.Init(ps.nb)
	if cap(ps.neutral) < ps.nb {
		ps.neutral = make([]bool, ps.nb)
	} else {
		ps.neutral = ps.neutral[:ps.nb]
		clear(ps.neutral)
	}
}

// phase1 is the parallel neutralization loop run by every team member:
// "Each thread takes one block from each side of the array to be sorted,
// and tries to neutralize blocks ... As soon as one of the blocks has been
// neutralized, the thread tries to acquire another block from the same side
// of the array, until we run out of free blocks" (§5).
func (ps *parState[T]) phase1() {
	data, pv, B := ps.data, ps.pv, ps.block
	// One blockScan per side, reset per acquired block: no allocation.
	var L, R blockScan
	li, okL := ps.claim.Left()
	ri, okR := ps.claim.Right()
	L.reset(li*B, (li+1)*B)
	R.reset(ri*B, (ri+1)*B)
	for okL && okR {
		neutralize(data, pv, &L, &R)
		if L.exhausted() {
			ps.neutral[li] = true
			li, okL = ps.claim.Left()
			L.reset(li*B, (li+1)*B)
		}
		if R.exhausted() {
			ps.neutral[ri] = true
			ri, okR = ps.claim.Right()
			R.reset(ri*B, (ri+1)*B)
		}
	}
	// At most one unfinished block per side remains non-neutral; the cleanup
	// phase collects it from the neutral bitmap.
}

// cleanup runs on the team's local id 0 after all threads have deposited
// (the team's barrier): it pairs leftover unfinished blocks, compacts the
// survivors next to the middle gap, sequentially partitions the middle and
// the trailing partial block, and returns the final split position.
func (ps *parState[T]) cleanup() int {
	data, pv, B, nb := ps.data, ps.pv, ps.block, ps.nb
	n := len(data)
	la := ps.claim.TakenLeft()
	ra := ps.claim.TakenRight()

	// Phase 2: pair unfinished left blocks with unfinished right blocks,
	// continuing neutralization sequentially (the paper replaces [18]'s
	// single-collector phase with a producer/consumer exchanger; with the
	// cleanup serialized on one thread, direct pairing is equivalent). The
	// unfinished blocks of a side are its claimed blocks still false in the
	// neutral bitmap, visited in ascending order; a block finished here is
	// marked, so afterwards the bitmap alone tells which are left.
	li, ri := 0, nb-ra
	var L, R blockScan // the zero blockScan is exhausted: the first round loads both
	for {
		if L.exhausted() {
			for li < la && ps.neutral[li] {
				li++
			}
			if li == la {
				break
			}
			L.reset(li*B, (li+1)*B)
		}
		if R.exhausted() {
			for ri < nb && ps.neutral[ri] {
				ri++
			}
			if ri == nb {
				break
			}
			R.reset(ri*B, (ri+1)*B)
		}
		neutralize(data, pv, &L, &R)
		if L.exhausted() {
			ps.neutral[li] = true
			li++
		}
		if R.exhausted() {
			ps.neutral[ri] = true
			ri++
		}
	}

	// Phase 3a: compact the unfinished left blocks to the high end of the
	// left-acquired region by whole-block content swaps with neutral blocks,
	// so that blocks [0, leftBoundary) are all ≤ pivot: the k-th unfinished
	// block below the boundary trades places with the k-th neutral block
	// above it (there are as many of one as of the other).
	leftBoundary := la - ps.unfinished(0, la)
	d := leftBoundary
	for b := 0; b < leftBoundary; b++ {
		if !ps.neutral[b] {
			for !ps.neutral[d] {
				d++
			}
			swapRanges(data, b*B, d*B, B)
			d++
		}
	}

	// Phase 3b: symmetric compaction on the right: blocks
	// [rightBoundary, nb) are all ≥ pivot.
	rightBoundary := nb - ra + ps.unfinished(nb-ra, nb)
	d = nb - ra
	for b := rightBoundary; b < nb; b++ {
		if !ps.neutral[b] {
			for !ps.neutral[d] {
				d++
			}
			swapRanges(data, b*B, d*B, B)
			d++
		}
	}

	// Phase 3c: sequential partition of the contiguous middle region.
	midLo, midHi := leftBoundary*B, rightBoundary*B
	m1 := midLo + PartitionByValue(data[midLo:midHi], pv)

	// Phase 3d: fold in the trailing partial block [nb·B, n). Its ≤-chunk is
	// exchanged with ≥-elements adjacent to the split, keeping the final
	// ≤/≥ regions contiguous.
	t0 := nb * B
	if t0 >= n {
		return m1
	}
	k := PartitionByValue(data[t0:], pv) // [t0, t0+k) ≤ pv, rest ≥ pv
	if k == 0 {
		return m1
	}
	g := t0 - m1 // ≥-elements between the split and the tail
	if g >= k {
		swapRanges(data, m1, t0, k)
		return m1 + k
	}
	// The ≥-gap is smaller than the ≤-chunk: swap the gap with the chunk's
	// tail end (no overlap since t0+k-g > t0 ⇔ k > g).
	if g > 0 {
		swapRanges(data, m1, t0+k-g, g)
	}
	return t0 + k - g
}

// unfinished counts the blocks of [lo, hi) that are not neutral.
func (ps *parState[T]) unfinished(lo, hi int) int {
	k := 0
	for _, done := range ps.neutral[lo:hi] {
		if !done {
			k++
		}
	}
	return k
}
