package main

import (
	"fmt"
	"slices"

	"repro"
	"repro/internal/dist"
	"repro/internal/qsort"
	"repro/internal/query"
)

// analytics is the query mix: every operator of the Runtime's query surface
// drawn uniformly, on the first size 3 times in 4 and either distribution,
// from nproc clients.
// The operators read the shared inputs in place, so there is nothing to
// stage; every result is compared with the sequential oracle of
// internal/query, precomputed in set-up. par collectives, query and
// teamsync.Barrier dominate; many short team tasks with barriers come from
// concurrent groups, where bigsort has a few long ones from one group.
type analytics struct {
	sz    sizing
	p     int
	cells []qCell // [size][kind], size-major
}

// Operators of the mix, in Op order.
const (
	qFilter = iota
	qGroupBy
	qAggregate
	qTopK
	qJoin
	qPlan
	numQOps
)

var qOpNames = [numQOps]string{"filter", "groupby", "aggregate", "topk", "mergejoin", "plan"}

var analyticsKinds = []dist.Kind{dist.Random, dist.Staggered}

// Fixed operator parameters: keys spread the value space over qNB buckets,
// the filter keeps even values, the aggregation sums values per bucket.
const (
	qNB = 256 // key buckets of groupby / aggregate / plan
	qK  = 100 // selection width of topk / plan
)

func qPred(v int32) bool           { return v&1 == 0 }
func qKey(v int32) int             { return int(uint32(v) % qNB) }
func qLift(a int64, v int32) int64 { return a + int64(v) }
func qComb(a, b int64) int64       { return a + b }

// qCell is one shared input with every operator's expected result.
type qCell struct {
	in  []int32
	srt []int32 // ascending copy of in: both sides of the self merge join

	filtered []int32                // filter survivors, in input order
	grouped  []int32                // groupby output, stable within buckets
	starts   []int                  // groupby bucket offsets
	agg      []int64                // per-bucket sums
	top      []int32                // the qK largest, descending
	join     []query.JoinRun[int32] // self-join runs, one per distinct key
	planOut  []int32                // filter → aggregate → topk: final stream
	planAgg  []int64                // … and its aggregate side output
}

func newQCell(in []int32) qCell {
	n := len(in)
	c := qCell{in: in}
	c.srt = slices.Clone(in)
	qsort.Introsort(c.srt)

	c.filtered = make([]int32, n)
	c.filtered = c.filtered[:query.SeqFilter(in, c.filtered, qPred)]
	c.grouped = make([]int32, n)
	c.starts = query.SeqGroupBy(in, c.grouped, qNB, qKey)
	c.agg = query.SeqAggregate(in, qNB, int64(0), qLift, qKey)
	c.top = make([]int32, qK)
	c.top = c.top[:query.SeqTopK(in, c.top, qK)]
	c.join = make([]query.JoinRun[int32], n)
	c.join = slices.Clip(c.join[:query.SeqMergeJoin(c.srt, c.srt, c.join)])
	c.planAgg = query.SeqAggregate(c.filtered, qNB, int64(0), qLift, qKey)
	c.planOut = make([]int32, qK)
	c.planOut = c.planOut[:query.SeqTopK(c.filtered, c.planOut, qK)]
	return c
}

func (w *analytics) spec() spec {
	return spec{
		name:      "analytics",
		clients:   w.p,
		warmup:    w.sz.analyticsWarm,
		spanEvery: 1,
		maxRate:   100000,
	}
}

func (w *analytics) prepare(seed uint64) {
	in, _ := streams(seed, 0)
	w.cells = nil
	for _, n := range w.sz.analyticsSizes {
		for _, k := range analyticsKinds {
			w.cells = append(w.cells, newQCell(dist.Generate(k, n, in.Next())))
		}
	}
}

// next draws the operator and the distribution uniformly and the first size
// 3 times in 4: the latencies of the two sizes are two modes with little
// between them, and an even split puts the median into that gap, where it
// moved by ±25 % between half-second stretches of one run.
func (w *analytics) next(rng *dist.RNG, _ int) request {
	op := rng.Intn(numQOps)
	size := 0
	if rng.Intn(4) == 3 {
		size = 1
	}
	return request{Op: uint8(op), Input: uint16(size*len(analyticsKinds) + rng.Intn(len(analyticsKinds)))}
}

func (w *analytics) label(rq request) string {
	return fmt.Sprintf("%s n=%d %v", qOpNames[rq.Op],
		w.sz.analyticsSizes[int(rq.Input)/len(analyticsKinds)], analyticsKinds[int(rq.Input)%len(analyticsKinds)])
}

func (w *analytics) newClient(rt *repro.Runtime[int32]) client {
	maxN := w.sz.analyticsSizes[len(w.sz.analyticsSizes)-1]
	return &queryClient{
		rt:      rt,
		cells:   w.cells,
		dst:     make([]int32, maxN),
		joinOut: make([]repro.JoinRun[int32], maxN),
		plan:    newBenchPlan(rt, maxN),
	}
}

// newBenchPlan is the pipeline of the plan operator: filter → aggregate
// (side output) → topk.
func newBenchPlan(rt *repro.Runtime[int32], capN int) *repro.QueryPlan[int32] {
	return rt.NewPlan(capN).Filter(qPred).Aggregate(qNB, qKey, 0, qLift, qComb).TopK(qK)
}

// queryClient owns the output buffers and the plan of one client. call
// leaves the result in got*, verify compares it with the cell's oracle.
type queryClient struct {
	rt      *repro.Runtime[int32]
	cells   []qCell
	dst     []int32
	joinOut []repro.JoinRun[int32]
	plan    *repro.QueryPlan[int32]

	gotN      int
	gotStarts []int
	gotAgg    []int64
	gotRes    repro.QueryResult[int32]
}

func (c *queryClient) stage(request) {}

func (c *queryClient) call(rq request, _ *callEnv) error {
	cell := &c.cells[rq.Input]
	switch rq.Op {
	case qFilter:
		c.gotN = c.rt.Filter(cell.in, c.dst, qPred)
	case qGroupBy:
		c.gotStarts = c.rt.GroupBy(cell.in, c.dst[:len(cell.in)], qNB, qKey)
	case qAggregate:
		c.gotAgg = c.rt.Aggregate(cell.in, qNB, qKey, 0, qLift, qComb)
	case qTopK:
		c.gotN = c.rt.TopK(cell.in, c.dst, qK)
	case qJoin:
		c.gotN = c.rt.MergeJoin(cell.srt, cell.srt, c.joinOut)
	case qPlan:
		c.gotRes = c.rt.RunPlan(c.plan, cell.in)
	}
	return nil
}

func (c *queryClient) verify(rq request, _ error) outcome {
	cell := &c.cells[rq.Input]
	ok := false
	switch rq.Op {
	case qFilter:
		ok = slices.Equal(c.dst[:c.gotN], cell.filtered)
	case qGroupBy:
		ok = slices.Equal(c.gotStarts, cell.starts) && slices.Equal(c.dst[:len(cell.in)], cell.grouped)
	case qAggregate:
		ok = slices.Equal(c.gotAgg, cell.agg)
	case qTopK:
		ok = slices.Equal(c.dst[:c.gotN], cell.top)
	case qJoin:
		ok = slices.Equal(c.joinOut[:c.gotN], cell.join)
	case qPlan:
		ok = slices.Equal(c.gotRes.Out, cell.planOut) && slices.Equal(c.gotRes.Aggregates, cell.planAgg)
	}
	if !ok {
		return outWrong
	}
	return outOK
}
