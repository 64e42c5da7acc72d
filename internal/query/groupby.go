package query

import (
	"repro/internal/core"
	"repro/internal/par"
)

// Grouper is the shared state of a team group-by: the per-(member, bucket)
// histogram, whose private cursor rows the scatter advances, and the bucket
// start offsets. Allocate once per task with NewGrouper and share via the
// task closure; the state is reusable for consecutive collectives by the
// same team.
type Grouper[T any] struct {
	nb     int
	hist   *par.Hist
	starts []int // nb+1: bucket b occupies grouped[starts[b]:starts[b+1]]
}

// NewGrouper returns group-by state for teams of up to np members over nb
// key buckets.
func NewGrouper[T any](np, nb int) *Grouper[T] {
	return &Grouper[T]{nb: nb, hist: new(par.Hist).Init(np, nb), starts: make([]int, nb+1)}
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
// per-(member, bucket) matrix, the rows are merged into the totals across
// the barrier, and each member sums its own cursors from the totals and the
// rows before its own (par.Hist.Cursors) and scatters its static chunk
// through them, write-conflict-free by construction. Member 0's cursors are
// the bucket starts; it publishes them before it scatters. Three barriers
// in all: Merge's two and the trailing one.
func (g *Grouper[T]) GroupBy(ctx *core.Ctx, src, grouped []T, key func(T) int) []int {
	starts := g.groupBy(ctx, src, grouped, key)
	ctx.Barrier()
	return starts
}

func (g *Grouper[T]) groupBy(ctx *core.Ctx, src, grouped []T, key func(T) int) []int {
	w, lid := ctx.TeamSize(), ctx.LocalID()
	n := len(src)
	if w == 1 {
		return seqGroupByInto(src, grouped, g.nb, key, g.starts, g.hist.Row(0)) // the row as the oracle's scratch
	}

	// Phase 1: per-(member, bucket) histogram of the static chunks: count
	// this member's chunk into its own row, key called directly, and merge.
	lo, hi := par.Chunk(lid, w, n)
	row := g.hist.Row(lid)
	clear(row)
	for _, v := range src[lo:hi] {
		row[key(v)]++
	}
	g.hist.Merge(ctx)

	// Phase 2: stable conflict-free scatter through this member's cursors;
	// member 0's, before it advances them, are the bucket starts.
	cur := g.hist.Cursors(lid)
	if lid == 0 {
		copy(g.starts, cur)
		g.starts[g.nb] = n
	}
	for _, v := range src[lo:hi] { // the chunk phase 1 counted
		b := key(v)
		grouped[cur[b]] = v
		cur[b]++
	}
	return g.starts
}

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
