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
	steps        []*step[T]
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
	if maxTeam < 1 {
		maxTeam = 1
	}
	if minPerThread <= 0 {
		minPerThread = DefaultMinPerThread
	}
	return &Plan[T]{
		maxTeam:      maxTeam,
		minPerThread: minPerThread,
		capN:         capN,
		buf:          [2][]T{make([]T, capN), make([]T, capN)},
	}
}

// stepKind discriminates the operator a step runs.
type stepKind int

const (
	stepFilter stepKind = iota
	stepGroupBy
	stepAggregate
	stepTopK
)

// step is one stage of a plan: the operator's prebuilt team state plus the
// per-execution bindings (team size, input, output) Execute sets before
// running it. One struct for all kinds keeps the task side trivial: step is
// itself the core.Task the stage submits, so a warm Execute builds no
// closures.
type step[T Ordered] struct {
	kind stepKind
	k    int // TopK
	pred func(T) bool
	key  func(T) int

	filt *Filterer[T]
	grp  *Grouper[T]
	agg  *Aggregator[T, int64]
	top  *TopKer[T]

	// Bindings of the current execution, set by Execute before the stage is
	// submitted and read back after the group drains.
	np   int
	src  []T
	dst  []T
	outN int
}

func (s *step[T]) Threads() int { return s.np }

func (s *step[T]) Run(ctx *core.Ctx) {
	switch s.kind {
	case stepFilter:
		n := s.filt.Filter(ctx, s.src, s.dst, s.pred)
		if ctx.LocalID() == 0 {
			s.outN = n
		}
	case stepGroupBy:
		s.grp.GroupBy(ctx, s.src, s.dst, s.key)
		if ctx.LocalID() == 0 {
			s.outN = len(s.src)
		}
	case stepAggregate:
		s.agg.Aggregate(ctx, s.src, s.key)
		if ctx.LocalID() == 0 {
			s.outN = len(s.src)
		}
	case stepTopK:
		n := s.top.TopK(ctx, s.src, s.dst, s.k)
		if ctx.LocalID() == 0 {
			s.outN = n
		}
	}
}

// Filter appends a stable predicate filter stage; the stream narrows to the
// survivors. pred must be pure.
func (p *Plan[T]) Filter(pred func(T) bool) *Plan[T] {
	p.steps = append(p.steps, &step[T]{
		kind: stepFilter, pred: pred, filt: NewFilterer[T](p.maxTeam),
	})
	return p
}

// GroupBy appends a bucket-contiguous reordering stage under key ∈ [0, nb);
// the stream keeps its length and the bucket offsets become Result.Starts.
// key must be pure.
func (p *Plan[T]) GroupBy(nb int, key func(T) int) *Plan[T] {
	p.steps = append(p.steps, &step[T]{
		kind: stepGroupBy, key: key, grp: NewGrouper[T](p.maxTeam, nb),
	})
	return p
}

// Aggregate appends a grouped-fold side-output stage: the live stream is
// folded per bucket under key ∈ [0, nb) with the int64 monoid (identity,
// comb) and injection lift, the totals become Result.Aggregates, and the
// stream passes through unchanged. comb must be associative with identity
// as its unit; key and lift must be pure.
func (p *Plan[T]) Aggregate(nb int, key func(T) int, identity int64,
	lift func(int64, T) int64, comb func(int64, int64) int64) *Plan[T] {
	p.steps = append(p.steps, &step[T]{
		kind: stepAggregate, key: key,
		agg: NewAggregator[T, int64](p.maxTeam, nb, identity, lift, comb),
	})
	return p
}

// TopK appends a selection stage: the stream narrows to its k largest
// elements in descending order.
func (p *Plan[T]) TopK(k int) *Plan[T] {
	p.steps = append(p.steps, &step[T]{
		kind: stepTopK, k: k, top: NewTopKer[T](p.maxTeam, k),
	})
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
		if s.kind != stepAggregate {
			s.dst = p.buf[bi]
		}
		if err := g.Run(s); err != nil {
			// The bindings stay: after a shutdown a member may still be
			// inside the abandoned stage, reading them.
			return Result[T]{}, err
		}
		switch s.kind {
		case stepFilter, stepTopK:
			n, cur, bi = s.outN, p.buf[bi], bi^1
		case stepGroupBy:
			cur, bi = p.buf[bi], bi^1
			res.Starts = s.grp.Starts()
		case stepAggregate:
			res.Aggregates = s.agg.Totals()
		}
		s.src, s.dst = nil, nil // don't pin the caller's src between runs
	}
	res.Out = cur[:n]
	return res, nil
}
