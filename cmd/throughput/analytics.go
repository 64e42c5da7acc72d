package main

import (
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/dist"
	"repro/internal/qsort"
	"repro/internal/query"
	"repro/internal/stats"
)

// The analytics request mix: every operator of the Runtime's query surface,
// drawn uniformly over the (distribution, size) cells. The operators read
// the shared pre-generated inputs in place (none of them mutates its
// source), so clients need no per-request input copy — the measured cost is
// the operator itself, end to end through the scheduler.
//
// Every cell's expected results are precomputed once from the sequential
// oracles at generation time, so in-loop verification is an equality check,
// cheap enough to run on every request.

// aOps is the report order of the analytics operators; the names match the
// Runtime's repro_query_* metric label values.
var aOps = []string{"filter", "groupby", "aggregate", "topk", "join", "plan"}

const (
	aNB   = 256 // key buckets of groupby/aggregate/plan
	aTopK = 100 // selection width of topk/plan
)

// The fixed operator parameters of the mix. Keys spread the int32 value
// space over aNB buckets; the filter keeps even values (~half of a random
// input); the aggregation sums values per bucket.
func aPred(v int32) bool           { return v&1 == 0 }
func aKey(v int32) int             { return int(uint32(v) % aNB) }
func aLift(a int64, v int32) int64 { return a + int64(v) }
func aComb(a, b int64) int64       { return a + b }

// aCell is one (distribution, size) workload cell: the shared input, its
// sorted copy (the join side), and every operator's expected result.
type aCell struct {
	kind dist.Kind
	n    int
	in   []int32
	srt  []int32 // ascending copy of in; both sides of the self merge join

	expFilter  int     // filter: surviving count
	expStarts  []int   // groupby: bucket offsets (len aNB+1)
	expAgg     []int64 // aggregate: per-bucket sums
	expTop     []int32 // topk: the aTopK largest, descending
	expJoin    int     // join: matched run count (distinct keys of srt)
	expPlanOut []int32 // plan: final stream of filter→aggregate→topk
	expPlanAgg []int64 // plan: aggregate side-output over the filtered stream
}

// newACell precomputes one cell with the sequential oracles.
func newACell(kind dist.Kind, n int, in []int32) aCell {
	c := aCell{kind: kind, n: n, in: in}

	c.srt = make([]int32, n)
	copy(c.srt, in)
	qsort.Introsort(c.srt)

	filtered := make([]int32, n)
	c.expFilter = query.SeqFilter(in, filtered, aPred)
	filtered = filtered[:c.expFilter]

	grouped := make([]int32, n)
	c.expStarts = query.SeqGroupBy(in, grouped, aNB, aKey)
	c.expAgg = query.SeqAggregate(in, aNB, int64(0), aLift, aKey)

	c.expTop = make([]int32, aTopK)
	c.expTop = c.expTop[:query.SeqTopK(in, c.expTop, aTopK)]

	for i := 0; i < n; i++ { // distinct keys of srt = self-join run count
		if i == 0 || c.srt[i] != c.srt[i-1] {
			c.expJoin++
		}
	}

	// The plan under test: filter → aggregate (side-output) → topk.
	c.expPlanAgg = query.SeqAggregate(filtered, aNB, int64(0), aLift, aKey)
	c.expPlanOut = make([]int32, aTopK)
	c.expPlanOut = c.expPlanOut[:query.SeqTopK(filtered, c.expPlanOut, aTopK)]
	return c
}

// analyticsClient is one client goroutine's request loop of the analytics
// mix: pick a random (cell, operator), issue it through the Runtime, verify
// the result against the cell's precomputed expectation, and record the
// latency under the operator's label.
func analyticsClient(cfg runConfig, rt *repro.Runtime[int32], rng *dist.RNG,
	deadline time.Time, res *clientResult, inflightNow, inflightPeak *atomic.Int64) {
	// Per-client scratch, reused every iteration: allocations inside the
	// timed loop would perturb the tail latencies being measured.
	dst := make([]int32, cfg.maxSize)
	joinOut := make([]repro.JoinRun[int32], cfg.maxSize)
	plan := rt.NewPlan(cfg.maxSize).
		Filter(aPred).
		Aggregate(aNB, aKey, 0, aLift, aComb).
		TopK(aTopK)

	for time.Now().Before(deadline) {
		cell := &cfg.cells[rng.Intn(len(cfg.cells))]
		op := aOps[rng.Intn(len(aOps))]
		bumpInflight(inflightNow, inflightPeak, 1)
		ok := true
		t0 := time.Now()
		switch op {
		case "filter":
			n := rt.Filter(cell.in, dst, aPred)
			ok = n == cell.expFilter
		case "groupby":
			starts := rt.GroupBy(cell.in, dst[:cell.n], aNB, aKey)
			ok = equalInts(starts, cell.expStarts)
		case "aggregate":
			totals := rt.Aggregate(cell.in, aNB, aKey, 0, aLift, aComb)
			ok = equalInt64s(totals, cell.expAgg)
		case "topk":
			n := rt.TopK(cell.in, dst, aTopK)
			ok = n == len(cell.expTop) && equalInt32s(dst[:n], cell.expTop)
		case "join":
			n := rt.MergeJoin(cell.srt, cell.srt, joinOut)
			ok = n == cell.expJoin
		case "plan":
			r := rt.RunPlan(plan, cell.in)
			ok = equalInt32s(r.Out, cell.expPlanOut) && equalInt64s(r.Aggregates, cell.expPlanAgg)
		}
		el := time.Since(t0)
		inflightNow.Add(-1)
		res.overall.AddDuration(el)
		s := res.perAlgo[op]
		if s == nil {
			s = &stats.Sample{}
			res.perAlgo[op] = s
		}
		s.AddDuration(el)
		res.requests++
		if !ok {
			res.failures++
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalInt32s(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
