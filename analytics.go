package repro

import (
	"context"

	"repro/internal/core"
	"repro/internal/query"
)

// This file is the Runtime's analytics surface: the team-parallel query
// operators of internal/query served request-per-group exactly like the
// Sort* methods — many goroutines may call them concurrently, each call
// runs as its own quiescence group on the shared scheduler, and every call
// is instrumented into the repro_query_* metric families (see
// Runtime.Metrics).
//
// Team sizes follow core.BestNp over the input length, so small requests
// run as classical single-threaded tasks and large ones as team tasks —
// the mixed-mode regime the paper targets, under analytics request shapes
// instead of sorts.

// JoinRun is one matched key run of a merge join: the key and the index
// ranges holding it on each side (the output pairs are their cross
// product).
type JoinRun[T Ordered] = query.JoinRun[T]

// QueryPlan is a preallocated linear pipeline of analytics operators;
// build with Runtime.NewPlan and run with Runtime.RunPlan.
type QueryPlan[T Ordered] = query.Plan[T]

// QueryResult is the output of one QueryPlan execution.
type QueryResult[T Ordered] = query.Result[T]

// bestNp is the team size of one analytics request over n elements.
func (r *Runtime[T]) bestNp(n int) int {
	return core.BestNp(n, query.DefaultMinPerThread, r.s.MaxTeam())
}

// single is request for the analytics methods: one request of one family,
// no context, and no error result. body runs op, a pooled Op, and reads its
// results only from a run that returned nil: the only failure is
// ErrShutdown after Close, and the methods then return zero results.
func (r *Runtime[T]) single(f family, body func(g *core.Group, op *query.Op[T]) error) {
	var l load
	l[f] = 1
	op, ok := r.ops.GetShared()
	if !ok {
		op = query.NewOp[T](r.s.MaxTeam())
	}
	held := loans[T]{op: op}
	_ = r.request(context.Background(), l, &held, func(g *core.Group) error { return body(g, op) })
}

// Filter stably copies the elements of src satisfying pred into dst and
// returns the surviving count n; only dst[:n] is written, so room for the
// survivors suffices. dst must not alias src; pred must be pure.
func (r *Runtime[T]) Filter(src, dst []T, pred func(T) bool) (n int) {
	r.single(famFilter, func(g *core.Group, op *query.Op[T]) (err error) {
		if err = g.Run(op.Filter(r.bestNp(len(src)), src, dst, pred)); err == nil {
			n = op.N()
		}
		return err
	})
	return n
}

// GroupBy reorders src into grouped so that the elements of every key
// bucket are contiguous (stable within buckets) and returns the freshly
// allocated bucket offsets: bucket b occupies grouped[starts[b]:starts[b+1]].
// key must map every element into [0, nb) and be pure; grouped must not
// alias src.
func (r *Runtime[T]) GroupBy(src, grouped []T, nb int, key func(T) int) []int {
	starts := make([]int, nb+1)
	r.single(famGroupBy, func(g *core.Group, op *query.Op[T]) (err error) {
		if err = g.Run(op.GroupBy(r.bestNp(len(src)), src, grouped, nb, key)); err == nil {
			copy(starts, op.Starts())
		}
		return err
	})
	return starts
}

// Aggregate computes, for every bucket b ∈ [0, nb), the fold of lift over
// the elements of src with key(v) = b, returning the freshly allocated
// per-bucket totals. comb must be associative with identity as its unit
// (the monoid is fixed to int64 accumulators). key and lift must be pure.
func (r *Runtime[T]) Aggregate(src []T, nb int, key func(T) int, identity int64,
	lift func(int64, T) int64, comb func(int64, int64) int64) []int64 {
	out := make([]int64, nb)
	r.single(famAggregate, func(g *core.Group, op *query.Op[T]) (err error) {
		if err = g.Run(op.Aggregate(r.bestNp(len(src)), src, nb, key, identity, lift, comb)); err == nil {
			copy(out, op.Totals())
		}
		return err
	})
	return out
}

// TopK writes the k largest elements of src into dst in descending order
// and returns the selected count min(k, len(src)). dst must not alias src.
func (r *Runtime[T]) TopK(src, dst []T, k int) (n int) {
	r.single(famTopK, func(g *core.Group, op *query.Op[T]) (err error) {
		if err = g.Run(op.TopK(r.bestNp(len(src)), src, dst, k)); err == nil {
			n = op.N()
		}
		return err
	})
	return n
}

// MergeJoin joins the ascending-sorted slices a and b: one JoinRun per key
// present in both sides is written into out, ascending by key, and the run
// count is returned. out must have room for every matched run
// (min(len(a), len(b)) always suffices) and must not alias a or b.
func (r *Runtime[T]) MergeJoin(a, b []T, out []JoinRun[T]) (n int) {
	r.single(famJoin, func(g *core.Group, op *query.Op[T]) (err error) {
		if err = g.Run(op.MergeJoin(r.bestNp(len(a)+len(b)), a, b, out)); err == nil {
			n = op.N()
		}
		return err
	})
	return n
}

// SortJoin sorts a and b in place with the mixed-mode samplesort (both
// sorts run concurrently in the request's group), then merge-joins them
// into out, returning the matched run count — the staged sort-then-join
// composition as one request.
func (r *Runtime[T]) SortJoin(a, b []T, out []JoinRun[T], opt SSOptions) int {
	n := 0
	r.single(famJoin, func(g *core.Group, op *query.Op[T]) (err error) {
		n, err = query.SortJoin(g, op, &r.forks, a, b, out, opt)
		return err
	})
	return n
}

// NewPlan returns an empty analytics plan for inputs of up to capN
// elements, sized to this Runtime's scheduler. Chain stages with the
// builder methods (Filter, GroupBy, Aggregate, TopK), then run with
// RunPlan.
func (r *Runtime[T]) NewPlan(capN int) *QueryPlan[T] {
	return query.NewPlan[T](capN, r.s.MaxTeam(), 0)
}

// RunPlan executes plan over src as one request: each stage runs as one
// team task in the request's quiescence group, with the group's drain as
// the stage boundary. The returned views alias the plan's buffers and stay
// valid until its next run; a given plan must not be executed concurrently.
// On a closed Runtime the result is the zero QueryResult.
func (r *Runtime[T]) RunPlan(plan *QueryPlan[T], src []T) QueryResult[T] {
	var res QueryResult[T]
	r.single(famPlan, func(g *core.Group, _ *query.Op[T]) (err error) {
		res, err = plan.Execute(g, src)
		return err
	})
	return res
}
