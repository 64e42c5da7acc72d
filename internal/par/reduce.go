package par

import (
	"cmp"

	"repro/internal/core"
)

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
// stores the total. np = 1 runs the sequential oracle.
func Reduce[A any](np, n int, identity A, at func(i int) A, comb func(A, A) A, out *A) core.Task {
	if np == 1 {
		return core.Solo(func(*core.Ctx) { *out = SeqReduce(n, identity, at, comb) })
	}
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

// extrema carries a running minimum/maximum; ok distinguishes "no elements
// seen yet" without needing ±∞ sentinels for arbitrary ordered types.
type extrema[T cmp.Ordered] struct {
	min, max T
	ok       bool
}

func combineExtrema[T cmp.Ordered](a, b extrema[T]) extrema[T] {
	switch {
	case !a.ok:
		return b
	case !b.ok:
		return a
	}
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	return a
}

// MinMaxer is the shared state of a team min/max reduction.
type MinMaxer[T cmp.Ordered] struct {
	r *Reducer[extrema[T]]
}

// NewMinMaxer returns min/max state for teams of up to np members.
func NewMinMaxer[T cmp.Ordered](np int) *MinMaxer[T] {
	return &MinMaxer[T]{r: NewReducer(np, combineExtrema[T])}
}

// MinMax is a collective returning the minimum and maximum of data to every
// member of the executing team; each member scans one static chunk. For
// empty data both results are the zero value. A team of size 1 runs the
// sequential oracle.
func (m *MinMaxer[T]) MinMax(ctx *core.Ctx, data []T) (T, T) {
	mn, mx := m.minMax(ctx, data)
	ctx.Barrier()
	return mn, mx
}

func (m *MinMaxer[T]) minMax(ctx *core.Ctx, data []T) (T, T) {
	w, lid := ctx.TeamSize(), ctx.LocalID()
	if w == 1 {
		return SeqMinMax(data)
	}
	lo, hi := Chunk(lid, w, len(data))
	e := m.r.reduce(ctx, scanExtrema(data[lo:hi]))
	return e.min, e.max
}

func scanExtrema[T cmp.Ordered](part []T) extrema[T] {
	var e extrema[T]
	for _, v := range part {
		if !e.ok {
			e = extrema[T]{min: v, max: v, ok: true}
			continue
		}
		if v < e.min {
			e.min = v
		}
		if v > e.max {
			e.max = v
		}
	}
	return e
}

// SeqMinMax is the sequential oracle of MinMax.
func SeqMinMax[T cmp.Ordered](data []T) (T, T) {
	e := scanExtrema(data)
	return e.min, e.max
}

// MinMax returns a team task of np members storing the minimum and maximum
// of data into *outMin and *outMax (zero values for empty data).
func MinMax[T cmp.Ordered](np int, data []T, outMin, outMax *T) core.Task {
	if np == 1 {
		return core.Solo(func(*core.Ctx) { *outMin, *outMax = SeqMinMax(data) })
	}
	m := NewMinMaxer[T](np)
	return core.Func(np, func(ctx *core.Ctx) {
		lo, hi := m.MinMax(ctx, data)
		if ctx.LocalID() == 0 {
			*outMin, *outMax = lo, hi
		}
	})
}

// Map returns a team task of np members computing dst[i] = f(i) for every
// i in [0, len(dst)). Elementwise kernels are order-independent, so the
// members claim chunks of core.DefaultChunk elements dynamically (the
// end-pointer acquisition schedule), which balances irregular per-index
// costs for free. np = 1 runs the plain sequential loop.
func Map[T any](np int, dst []T, f func(i int) T) core.Task {
	n := len(dst)
	if np == 1 {
		return core.Solo(func(*core.Ctx) {
			for i := range dst {
				dst[i] = f(i)
			}
		})
	}
	return core.ForDynamic(np, n, core.DefaultChunk(np, n), func(_ *core.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = f(i)
		}
	})
}
