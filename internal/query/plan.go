package query

import "repro/internal/core"

// Plan is a preallocated linear pipeline of analytics operators: a builder
// chains Filter/GroupBy/Aggregate/TopK steps, and Execute runs them as a
// sequence of team tasks on a quiescence group, each stage sized by core.BestNp
// for its live input. All intermediates — two element buffers the stages
// ping-pong between, plus every operator's team state at full width — are
// allocated when the plan is built, so a warm plan executes without
// per-element allocation however often it runs (the regression test in
// plan_test.go pins this).
//
// The element stream starts as the caller's src (never written), flows
// through the stream-rewriting stages (Filter, GroupBy, TopK), and ends as
// Result.Out. Aggregate is a side-output: it folds the live stream into
// per-bucket int64 totals (Result.Aggregates) and passes the stream through
// unchanged, so e.g. Filter → Aggregate → TopK is a single plan. GroupBy
// additionally publishes its bucket offsets as Result.Starts.
//
// A Plan is not safe for concurrent Execute calls; build one per client (the
// states inside are team-shared, not request-shared).
type Plan[T Ordered] struct {
	maxTeam      int
	minPerThread int
	capN         int
	buf          [2][]T
	steps        []*Op[T] // bound at build time but for np, src and dst
}

// Result is the output of one Plan execution. Out aliases one of the plan's
// internal buffers (or src itself when no stage rewrote the stream), and
// Starts/Aggregates alias operator state; all are overwritten by the next
// Execute.
type Result[T Ordered] struct {
	// Out is the final element stream.
	Out []T
	// Starts is the bucket offsets (len nb+1) of the last GroupBy stage,
	// nil if the plan has none.
	Starts []int
	// Aggregates is the per-bucket totals of the last Aggregate stage, nil
	// if the plan has none.
	Aggregates []int64
}

// NewPlan returns an empty plan for inputs of up to capN elements executed
// by teams of up to maxTeam members; minPerThread ≤ 0 selects
// DefaultMinPerThread. Chain stages with the builder methods, then call
// Execute any number of times.
func NewPlan[T Ordered](capN, maxTeam, minPerThread int) *Plan[T] {
	if minPerThread <= 0 {
		minPerThread = DefaultMinPerThread
	}
	return &Plan[T]{
		maxTeam:      max(maxTeam, 1),
		minPerThread: minPerThread,
		capN:         capN,
		buf:          [2][]T{make([]T, capN), make([]T, capN)},
	}
}

// Filter appends a stable predicate filter stage; the stream narrows to the
// survivors. pred must be pure.
func (p *Plan[T]) Filter(pred func(T) bool) *Plan[T] {
	p.steps = append(p.steps, NewOp[T](p.maxTeam).Filter(1, nil, nil, pred))
	return p
}

// GroupBy appends a bucket-contiguous reordering stage under key ∈ [0, nb);
// the stream keeps its length and the bucket offsets become Result.Starts.
// key must be pure.
func (p *Plan[T]) GroupBy(nb int, key func(T) int) *Plan[T] {
	p.steps = append(p.steps, NewOp[T](p.maxTeam).GroupBy(1, nil, nil, nb, key))
	return p
}

// Aggregate appends a grouped-fold side-output stage: the live stream is
// folded per bucket under key ∈ [0, nb) with the int64 monoid (identity,
// comb) and injection lift, the totals become Result.Aggregates, and the
// stream passes through unchanged. comb must be associative with identity
// as its unit; key and lift must be pure.
func (p *Plan[T]) Aggregate(nb int, key func(T) int, identity int64,
	lift func(int64, T) int64, comb func(int64, int64) int64) *Plan[T] {
	p.steps = append(p.steps, NewOp[T](p.maxTeam).Aggregate(1, nil, nb, key, identity, lift, comb))
	return p
}

// TopK appends a selection stage: the stream narrows to its k largest
// elements in descending order.
func (p *Plan[T]) TopK(k int) *Plan[T] {
	p.steps = append(p.steps, NewOp[T](p.maxTeam).TopK(1, nil, nil, k))
	return p
}

// Execute runs the plan over src (len ≤ the plan's capacity) on g: each
// stage is submitted as one team task and the group's quiescence is the
// stage boundary, so stages see fully materialized inputs. g is reusable
// before and after (Execute only needs it quiescent between stages it runs
// itself); src is read, never written. The returned views stay valid until
// the next Execute. A stage that g refuses, or that ends canceled or shut
// down, ends the execution with the zero Result and that stage's error.
func (p *Plan[T]) Execute(g *core.Group, src []T) (Result[T], error) {
	if len(src) > p.capN {
		panic("query: Plan.Execute input exceeds the plan's capacity")
	}
	var res Result[T]
	cur, n, bi := src, len(src), 0
	for _, s := range p.steps {
		s.np = core.BestNp(n, p.minPerThread, p.maxTeam)
		s.src = cur[:n]
		if s.kind != opAggregate {
			s.dst = p.buf[bi]
		}
		if err := g.Run(s); err != nil {
			// The bindings stay: after a shutdown a member may still be
			// inside the abandoned stage, reading them.
			return Result[T]{}, err
		}
		switch s.kind {
		case opFilter, opTopK:
			n, cur, bi = s.N(), p.buf[bi], bi^1
		case opGroupBy:
			cur, bi = p.buf[bi], bi^1
			res.Starts = s.Starts()
		case opAggregate:
			res.Aggregates = s.Totals()
		}
		s.Unbind() // don't pin the caller's src between runs
	}
	res.Out = cur[:n]
	return res, nil
}
