package par

import "repro/internal/core"

// Reducer is the shared state of a team reduction: one padded slot per
// member for the partial results. Allocate once per task with NewReducer
// and share via the task closure.
type Reducer[A any] struct {
	comb  func(A, A) A
	slots []slot[A]
}

// NewReducer returns reduction state for teams of up to np members.
// comb must be associative; it need not be commutative (partials are
// combined in member order).
func NewReducer[A any](np int, comb func(A, A) A) *Reducer[A] {
	return &Reducer[A]{comb: comb, slots: make([]slot[A], np)}
}

// Reduce is a collective: every member of the executing team passes its
// partial and every member receives the combined total. The partials are
// tree-combined in member order at the team barrier (each member evaluates
// the same balanced grouping, so non-commutative combines are
// deterministic). For a team of size 1 the partial already is the total
// (the sequential oracle path).
func (r *Reducer[A]) Reduce(ctx *core.Ctx, partial A) A {
	total := r.reduce(ctx, partial)
	ctx.Barrier()
	return total
}

func (r *Reducer[A]) reduce(ctx *core.Ctx, partial A) A {
	w, lid := ctx.TeamSize(), ctx.LocalID()
	if w == 1 {
		return partial
	}
	checkTeam(w, len(r.slots))
	r.slots[lid].v = partial
	ctx.Barrier()
	return r.fold(0, w)
}

// fold combines slots [lo, hi) in balanced-tree grouping.
func (r *Reducer[A]) fold(lo, hi int) A {
	if hi-lo == 1 {
		return r.slots[lo].v
	}
	mid := lo + (hi-lo+1)/2
	return r.comb(r.fold(lo, mid), r.fold(mid, hi))
}

// SeqReduce is the sequential oracle: the fold of at(0) … at(n−1) onto
// identity in index order.
func SeqReduce[A any](n int, identity A, at func(i int) A, comb func(A, A) A) A {
	acc := identity
	for i := 0; i < n; i++ {
		acc = comb(acc, at(i))
	}
	return acc
}

// Reduce returns a team task of np members computing the associative fold
// of at(i) for i in [0, n) into *out. Each member folds one static chunk
// (Chunk), the partials are tree-combined at the team barrier, and member 0
// stores the total. On a team of one the single chunk is the whole range,
// folded in index order: the sequential oracle.
func Reduce[A any](np, n int, identity A, at func(i int) A, comb func(A, A) A, out *A) core.Task {
	r := NewReducer[A](np, comb)
	return core.Func(np, func(ctx *core.Ctx) {
		lo, hi := Chunk(ctx.LocalID(), ctx.TeamSize(), n)
		partial := identity
		for i := lo; i < hi; i++ {
			partial = comb(partial, at(i))
		}
		total := r.Reduce(ctx, partial)
		if ctx.LocalID() == 0 {
			*out = total
		}
	})
}
