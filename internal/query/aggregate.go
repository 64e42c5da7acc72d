package query

import (
	"repro/internal/core"
	"repro/internal/par"
)

// Aggregator is the shared state of a team grouped aggregation: one private
// per-bucket accumulator row per member plus the merged totals — par.Hist
// generalized from counting to an arbitrary monoid, so a grouped
// aggregation never materializes its groups. Allocate once per task with
// NewAggregator and share via the task closure.
//
// lift folds one element into an accumulator; comb combines two
// accumulators and must be associative with identity as its unit (partials
// are combined in member order, so comb need not be commutative).
type Aggregator[T, A any] struct {
	nb       int
	identity A
	lift     func(A, T) A
	comb     func(A, A) A
	rows     [][]A
	totals   []A
}

// NewAggregator returns aggregation state for teams of up to np members
// over nb key buckets under the monoid (identity, comb) with element
// injection lift.
func NewAggregator[T, A any](np, nb int, identity A, lift func(A, T) A, comb func(A, A) A) *Aggregator[T, A] {
	rows := make([][]A, np)
	for m := range rows {
		rows[m] = make([]A, nb)
	}
	return &Aggregator[T, A]{
		nb: nb, identity: identity, lift: lift, comb: comb,
		rows: rows, totals: make([]A, nb),
	}
}

// Aggregate is a collective computing, for every bucket b ∈ [0, nb), the
// fold of lift over the elements of src with key(v) = b: each member folds
// its static chunk into its private row, and after the team barrier the
// buckets are merged team-parallel with comb in member order. Returns the
// per-bucket totals to every member; the slice stays valid (and is
// overwritten) across calls. key must be pure. A team of size 1 runs the
// sequential oracle.
//
//repro:barrier every member must reach the trailing barrier before the totals are readable
func (a *Aggregator[T, A]) Aggregate(ctx *core.Ctx, src []T, key func(T) int) []A {
	w, lid := ctx.TeamSize(), ctx.LocalID()
	if w == 1 {
		seqAggregateInto(src, a.identity, a.lift, key, a.totals)
		return a.totals
	}
	checkTeam(w, len(a.rows))

	// Phase 1: fold this member's chunk into its private row.
	row := a.rows[lid]
	for b := range row {
		row[b] = a.identity
	}
	lo, hi := par.Chunk(lid, w, len(src))
	for i := lo; i < hi; i++ {
		b := key(src[i])
		row[b] = a.lift(row[b], src[i])
	}
	ctx.Barrier()

	// Phase 2: merge totals team-parallel — member m owns the m-th static
	// chunk of the bucket range, combining the rows in member order.
	blo, bhi := par.Chunk(lid, w, a.nb)
	for b := blo; b < bhi; b++ {
		t := a.identity
		for m := 0; m < w; m++ {
			t = a.comb(t, a.rows[m][b])
		}
		a.totals[b] = t
	}
	// Trailing barrier: all totals are merged (and the state reusable) for
	// every member once it returns.
	ctx.Barrier()
	return a.totals
}

// Totals returns the merged per-bucket results of the last Aggregate call.
// Valid on every member after the collective returns; do not mutate.
func (a *Aggregator[T, A]) Totals() []A { return a.totals }

// SeqAggregate is the sequential oracle of Aggregate: the per-bucket fold
// of lift over src in index order.
func SeqAggregate[T, A any](src []T, nb int, identity A, lift func(A, T) A, key func(T) int) []A {
	out := make([]A, nb)
	seqAggregateInto(src, identity, lift, key, out)
	return out
}

func seqAggregateInto[T, A any](src []T, identity A, lift func(A, T) A, key func(T) int, out []A) {
	for b := range out {
		out[b] = identity
	}
	for _, v := range src {
		b := key(v)
		out[b] = lift(out[b], v)
	}
}

// Aggregate returns a team task of np members computing the per-bucket fold
// of lift over src under key ∈ [0, nb) into out (len ≥ nb). comb must be
// associative with identity as its unit.
func Aggregate[T, A any](np int, src []T, nb int, key func(T) int, identity A,
	lift func(A, T) A, comb func(A, A) A, out []A) core.Task {
	if np == 1 {
		return core.Solo(func(*core.Ctx) { seqAggregateInto(src, identity, lift, key, out[:nb]) })
	}
	a := NewAggregator(np, nb, identity, lift, comb)
	return core.Func(np, func(ctx *core.Ctx) {
		totals := a.Aggregate(ctx, src, key)
		if ctx.LocalID() == 0 {
			copy(out, totals)
		}
	})
}
