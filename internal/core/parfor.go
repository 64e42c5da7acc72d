package core

import "sync/atomic"

// Data-parallel loop helpers: the paper's motivation (§1) is that classical
// work-stealing breaks data-parallel loops into independent chunk tasks and
// therefore "provides no means of ensuring simultaneous scheduling" — teams
// do. These helpers package the two standard loop schedules as team tasks.

// ForStatic returns a team task of np threads executing body over the index
// range [0, n) with a static block schedule: member i processes the i-th of
// np near-equal contiguous chunks. All members reach an implicit barrier
// before the task completes, so callers may treat the whole range as done
// when the task's completion is observed.
func ForStatic(np, n int, body func(ctx *Ctx, lo, hi int)) Task {
	return Func(np, func(ctx *Ctx) {
		w, lid := ctx.TeamSize(), ctx.LocalID()
		lo := lid * n / w
		hi := (lid + 1) * n / w
		if lo < hi {
			body(ctx, lo, hi)
		}
		ctx.Barrier()
	})
}

// DefaultChunk returns the default dynamic-schedule chunk size for np team
// members over n indices: n/(8·np), at least 1 — eight chunks per member,
// balancing claim overhead against end-of-range imbalance. It is the one
// place the heuristic lives; callers picking chunk sizes for dynamic
// schedules (internal/par, internal/dist/distpar) use it rather than
// re-deriving it.
func DefaultChunk(np, n int) int {
	chunk := n / (8 * np)
	if chunk < 1 {
		chunk = 1
	}
	return chunk
}

// BestNp is the paper's getBestNp(n): the largest power of two np ≤ maxTeam
// such that each of the np threads keeps at least minPerThread of the n
// elements ("to achieve better balancing, we decided to only allow powers of
// two as the number of threads for a task"). Always ≥ 1. Every mixed-mode
// algorithm sizes its team tasks with it; what differs per algorithm is only
// the quota (the quicksort's is block size × blocks per thread).
func BestNp(n, minPerThread, maxTeam int) int {
	np := 1
	for np*2 <= maxTeam && n >= 2*np*minPerThread {
		np *= 2
	}
	return np
}

// ForDynamic returns a team task of np threads executing body over [0, n)
// with a dynamic schedule: members repeatedly claim chunks of the given size
// from a shared counter, which balances irregular per-index costs inside the
// team (the same end-pointer acquisition pattern as the paper's
// data-parallel partitioning step). chunk ≤ 0 selects DefaultChunk(np, n).
func ForDynamic(np, n, chunk int, body func(ctx *Ctx, lo, hi int)) Task {
	if chunk <= 0 {
		chunk = DefaultChunk(np, n)
	}
	var next atomic.Int64
	return Func(np, func(ctx *Ctx) {
		for {
			lo := int(next.Add(int64(chunk))) - chunk
			if lo >= n {
				break
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			body(ctx, lo, hi)
		}
		ctx.Barrier()
	})
}

// TeamFor splits [0, n) across the members of the currently executing task's
// team with a static schedule and calls body on this member's chunk. It must
// be called by every member of the team (it is a collective operation: a
// barrier follows the chunk). For single-threaded tasks it degenerates to
// body(0, n).
func (c *Ctx) TeamFor(n int, body func(lo, hi int)) {
	w, lid := c.TeamSize(), c.LocalID()
	lo := lid * n / w
	hi := (lid + 1) * n / w
	if lo < hi {
		body(lo, hi)
	}
	c.Barrier()
}
