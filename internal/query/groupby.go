package query

import (
	"repro/internal/core"
	"repro/internal/par"
)

// Grouper is the shared state of a team group-by: the per-(member, bucket)
// histogram, the offset scan, the bucket start offsets and one private
// scatter-cursor row per member. Allocate once per task with NewGrouper and
// share via the task closure; the state is reusable for consecutive
// collectives by the same team.
type Grouper[T any] struct {
	nb     int
	hist   *par.Hist
	scan   *par.Scanner[int]
	starts []int   // nb+1: bucket b occupies grouped[starts[b]:starts[b+1]]
	curs   [][]int // per-member scatter cursors
}

// NewGrouper returns group-by state for teams of up to np members over nb
// key buckets.
func NewGrouper[T any](np, nb int) *Grouper[T] {
	curs := make([][]int, np)
	for m := range curs {
		curs[m] = make([]int, nb)
	}
	return &Grouper[T]{
		nb:     nb,
		hist:   par.NewHist(np, nb),
		scan:   par.NewScanner(np, 0, func(a, b int) int { return a + b }),
		starts: make([]int, nb+1),
		curs:   curs,
	}
}

// GroupBy is a collective reordering src into grouped so that the elements
// of every key bucket are contiguous: bucket b occupies
// grouped[starts[b]:starts[b+1]] of the returned offsets (len nb+1,
// starts[nb] = len(src)). Within a bucket the elements keep their src order
// (the scatter is stable), so GroupBy is deterministic. key must map every
// element into [0, nb) and be pure; grouped must not alias src and len ≥
// len(src). Returns the offsets to every member; the slice stays valid (and
// is overwritten) across calls. A team of size 1 runs the sequential
// oracle.
//
// It is the bucketing step of the mixed-mode samplesort generalized to
// arbitrary keys: each member counts its chunk into its row of par.Hist's
// per-(member, bucket) matrix, the merged totals are scanned exclusively
// for the bucket starts, and each member scatters its static chunk through
// its private cursors (par.Hist.Cursors), write-conflict-free by
// construction.
//
//repro:barrier every member must reach the trailing barrier before grouped and starts are readable
func (g *Grouper[T]) GroupBy(ctx *core.Ctx, src, grouped []T, key func(T) int) []int {
	w, lid := ctx.TeamSize(), ctx.LocalID()
	n := len(src)
	if w == 1 {
		return seqGroupByInto(src, grouped, g.nb, key, g.starts, g.curs[0])
	}
	checkTeam(w, len(g.curs))

	// Phase 1: per-(member, bucket) histogram of the static chunks: count
	// this member's chunk into its own row, key called directly, and merge.
	lo, hi := par.Chunk(lid, w, n)
	row := g.hist.Row(lid)
	clear(row)
	for _, v := range src[lo:hi] {
		row[key(v)]++
	}
	g.hist.Merge(ctx)

	// Phase 2: bucket start offsets — copy the totals and scan exclusively.
	totals := g.hist.Totals()
	ctx.TeamFor(g.nb, func(lo, hi int) {
		copy(g.starts[lo:hi], totals[lo:hi])
	})
	g.scan.Exclusive(ctx, g.starts[:g.nb])
	if lid == 0 {
		g.starts[g.nb] = n
	}

	// Phase 3: stable conflict-free scatter through this member's cursors.
	cur := g.curs[lid]
	g.hist.Cursors(lid, g.starts, cur)
	for _, v := range src[lo:hi] { // the chunk phase 1 counted
		b := key(v)
		grouped[cur[b]] = v
		cur[b]++
	}
	// Trailing barrier: grouped and starts are complete (and the state
	// reusable) for every member once it returns.
	ctx.Barrier()
	return g.starts
}

// Starts returns the bucket offsets of the last GroupBy call (len nb+1).
// Valid on every member after the collective returns; do not mutate.
func (g *Grouper[T]) Starts() []int { return g.starts }

// SeqGroupBy is the sequential oracle of GroupBy: it reorders src into
// grouped bucket-contiguously (stable within buckets) and returns the
// freshly allocated bucket offsets (len nb+1).
func SeqGroupBy[T any](src, grouped []T, nb int, key func(T) int) []int {
	return seqGroupByInto(src, grouped, nb, key, make([]int, nb+1), make([]int, nb))
}

// seqGroupByInto is the allocation-free core of the oracle: counts (len nb)
// is scratch, reused as the running write cursors.
func seqGroupByInto[T any](src, grouped []T, nb int, key func(T) int, starts, counts []int) []int {
	clear(counts[:nb])
	for _, v := range src {
		counts[key(v)]++
	}
	off := 0
	for b, c := range counts {
		starts[b] = off
		counts[b] = off // reuse as the running write cursor
		off += c
	}
	starts[nb] = off
	for _, v := range src {
		b := key(v)
		grouped[counts[b]] = v
		counts[b]++
	}
	return starts
}

// GroupBy returns a team task of np members reordering src into grouped
// bucket-contiguously under key ∈ [0, nb); the bucket offsets (len nb+1)
// are copied into outStarts when non-nil. grouped must not alias src.
func GroupBy[T any](np int, src, grouped []T, nb int, key func(T) int, outStarts []int) core.Task {
	if np == 1 {
		return core.Solo(func(*core.Ctx) {
			starts := SeqGroupBy(src, grouped, nb, key)
			if outStarts != nil {
				copy(outStarts, starts)
			}
		})
	}
	g := NewGrouper[T](np, nb)
	return core.Func(np, func(ctx *core.Ctx) {
		starts := g.GroupBy(ctx, src, grouped, key)
		if ctx.LocalID() == 0 && outStarts != nil {
			copy(outStarts, starts)
		}
	})
}
