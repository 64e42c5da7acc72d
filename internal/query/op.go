package query

import "repro/internal/core"

// Op is one analytics operator as a team task, the package's one task type:
// a binder (Filter, GroupBy, Aggregate, TopK, MergeJoin) sets the operator,
// its arguments and the team size np, and every member runs the operator's
// collective. The team state is built at the Op's full width by the first
// binder that needs it and kept; it is rebuilt only when nb changes or k
// grows. So a warm Op submits no closure and builds nothing: Plan stages
// are Ops, and the Runtime serves each analytics request with a pooled one.
//
// Bind an Op again only after its last run has drained. Read its results
// (N, Starts, Totals) only after a run that returned nil; they hold until
// the next run.
type Op[T Ordered] struct {
	maxTeam int
	kind    opKind
	np      int

	// Arguments of the bound operator.
	src, dst []T // MergeJoin's sides a and b
	out      []JoinRun[T]
	pred     func(T) bool
	key      func(T) int
	k        int

	// Team state, built at maxTeam width on first use.
	filt *Filterer[T]
	grp  *Grouper[T]
	agg  *Aggregator[T]
	top  *TopKer[T]
	join *Joiner[T]

	n int // the count the last run returned, written by member 0
}

// opKind discriminates the operator an Op runs.
type opKind int

const (
	opFilter opKind = iota
	opGroupBy
	opAggregate
	opTopK
	opMergeJoin
)

// NewOp returns an unbound Op for teams of up to maxTeam members.
func NewOp[T Ordered](maxTeam int) *Op[T] {
	return &Op[T]{maxTeam: max(maxTeam, 1)}
}

func (o *Op[T]) Threads() int { return o.np }

func (o *Op[T]) Run(ctx *core.Ctx) {
	n := 0
	switch o.kind {
	case opFilter:
		n = o.filt.Filter(ctx, o.src, o.dst, o.pred)
	case opGroupBy:
		o.grp.GroupBy(ctx, o.src, o.dst, o.key)
	case opAggregate:
		o.agg.Aggregate(ctx, o.src, o.key)
	case opTopK:
		n = o.top.TopK(ctx, o.src, o.dst, o.k)
	case opMergeJoin:
		n = o.join.MergeJoin(ctx, o.src, o.dst, o.out)
	}
	if ctx.LocalID() == 0 {
		o.n = n
	}
}

// Filter binds Filterer.Filter of src into dst on np members; N is the
// survivor count.
func (o *Op[T]) Filter(np int, src, dst []T, pred func(T) bool) *Op[T] {
	if o.filt == nil {
		o.filt = NewFilterer[T](o.maxTeam)
	}
	o.kind, o.np, o.src, o.dst, o.pred = opFilter, np, src, dst, pred
	return o
}

// GroupBy binds Grouper.GroupBy of src into grouped under key ∈ [0, nb) on
// np members; Starts is the bucket offsets.
func (o *Op[T]) GroupBy(np int, src, grouped []T, nb int, key func(T) int) *Op[T] {
	if o.grp == nil || o.grp.nb != nb {
		o.grp = NewGrouper[T](o.maxTeam, nb)
	}
	o.kind, o.np, o.src, o.dst, o.key = opGroupBy, np, src, grouped, key
	return o
}

// Aggregate binds Aggregator.Aggregate of src under key ∈ [0, nb) and the
// monoid (identity, comb) with injection lift on np members; Totals is the
// per-bucket result.
func (o *Op[T]) Aggregate(np int, src []T, nb int, key func(T) int, identity int64,
	lift func(int64, T) int64, comb func(int64, int64) int64) *Op[T] {
	if o.agg == nil || o.agg.nb != nb {
		o.agg = NewAggregator(o.maxTeam, nb, identity, lift, comb)
	}
	o.agg.identity, o.agg.lift, o.agg.comb = identity, lift, comb
	o.kind, o.np, o.src, o.key = opAggregate, np, src, key
	return o
}

// TopK binds TopKer.TopK, the k largest elements of src into dst, on np
// members; N is the selected count.
func (o *Op[T]) TopK(np int, src, dst []T, k int) *Op[T] {
	if o.top == nil || o.top.k < k {
		o.top = NewTopKer[T](o.maxTeam, k)
	}
	o.kind, o.np, o.src, o.dst, o.k = opTopK, np, src, dst, k
	return o
}

// MergeJoin binds Joiner.MergeJoin of the ascending-sorted a and b into out
// on np members; N is the run count.
func (o *Op[T]) MergeJoin(np int, a, b []T, out []JoinRun[T]) *Op[T] {
	if o.join == nil {
		o.join = NewJoiner[T](o.maxTeam)
	}
	o.kind, o.np, o.src, o.dst, o.out = opMergeJoin, np, a, b, out
	return o
}

// N is the count the last run returned: a Filter's survivors, a TopK's
// selection or a MergeJoin's runs.
func (o *Op[T]) N() int { return o.n }

// Starts is the bucket offsets (len nb+1) of the last GroupBy run; do not
// mutate.
func (o *Op[T]) Starts() []int { return o.grp.starts }

// Totals is the per-bucket results of the last Aggregate run; do not
// mutate.
func (o *Op[T]) Totals() []int64 { return o.agg.totals }

// Unbind drops the slices the Op was bound to, so an idle Op (a plan's
// stage, a pooled one) keeps no caller's data reachable.
func (o *Op[T]) Unbind() { o.src, o.dst, o.out = nil, nil, nil }
