package harness

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro"
	"repro/internal/dist"
	"repro/internal/qsort"
	"repro/internal/query"
)

// The three request mixes of cmd/throughput, as Scenario.Client table
// constructors over one shared Runtime and one pool of pre-generated inputs.

// teamQuota is the elements-per-member threshold all three mixed-mode sorts
// run with here (the quicksort's default block quota, which samplesort and
// merge sort would otherwise undercut with their own): the sort columns of
// a mix then differ by algorithm, not by when they start forming teams.
const teamQuota = qsort.DefaultBlockSize * qsort.DefaultMinBlocksPerThread

var sortOpts = repro.BatchOptions{
	SS: repro.SSOptions{MinPerThread: teamQuota},
	MS: repro.MSOptions{MinPerThread: teamQuota},
}

// sorter maps a column to its two entry points on the shared Runtime: the
// typed method the sort mix calls, and the SortMany algorithm of the abandon
// mix's batches (ok is false for SeqSTL, which does not run on the
// scheduler).
func sorter(rt *repro.Runtime[int32], a Algorithm) (sort func([]int32), algo repro.SortAlgo, ok bool) {
	switch a {
	case SeqSTL:
		return repro.SortSequential[int32], 0, false
	case Fork:
		return rt.SortForkJoin, repro.AlgoForkJoin, true
	case MMPar:
		return func(d []int32) { rt.SortMixedMode(d, sortOpts.MM) }, repro.AlgoMixedMode, true
	case SSort:
		return func(d []int32) { rt.SortSamplesort(d, sortOpts.SS) }, repro.AlgoSamplesort, true
	case MSort:
		return func(d []int32) { rt.SortMergeMixedMode(d, sortOpts.MS) }, repro.AlgoMergeMixedMode, true
	}
	panic(fmt.Sprintf("harness: %v does not run on the shared scheduler", a))
}

// sortRows returns one row per (input, algorithm), all sharing one scratch
// buffer that Prepare refills with a fresh copy of the row's input.
func sortRows(rt *repro.Runtime[int32], inputs [][]int32, algos []Algorithm, label func(Algorithm) string) []Request {
	var d []int32
	buf := make([]int32, len(slices.MaxFunc(inputs, byLen)))
	var rows []Request
	for _, in := range inputs {
		for _, a := range algos {
			sort, _, _ := sorter(rt, a)
			rows = append(rows, Request{
				Label:   label(a),
				Prepare: func(*dist.RNG) { d = buf[:len(in)]; copy(d, in) },
				Do:      func() Outcome { sort(d); return OK },
				Check:   func() bool { return qsort.IsSorted(d) },
			})
		}
	}
	return rows
}

func byLen(a, b []int32) int { return len(a) - len(b) }

// SortMix is the sort mix: every client draws uniformly over inputs × algos
// (any of ParseSchedulerAlgorithms' columns) and calls the column's typed
// Runtime method.
func SortMix(rt *repro.Runtime[int32], inputs [][]int32, algos []Algorithm) func(c int) []Request {
	return func(int) []Request { return sortRows(rt, inputs, algos, Algorithm.String) }
}

const abandonBatch = 4 // sorts per batch of the abandon mix: a batch worth abandoning

// AbandonMix is the cancellation/graceful-degradation scenario: even-indexed
// clients are latency-sensitive interactive sorters issuing mixed-mode sorts
// of the smallest inputs back to back (label "interactive"), odd-indexed
// clients submit SortManyCtx batches of the largest inputs, algorithms drawn
// from algos, under a context deadline of `after` and give up on them
// mid-flight (label "batch"). The role follows the client index so every run
// gets both populations (a lone client is interactive). The numbers to read
// are the interactive p99 (it must survive the batch flood — compare with a
// sort-mix run of the small size alone), Tally.Abandoned, and the admission
// revoked/canceled counters showing where the abandoned work went.
func AbandonMix(rt *repro.Runtime[int32], inputs [][]int32, algos []Algorithm, after time.Duration) (func(c int) []Request, error) {
	batchAlgos := make([]repro.SortAlgo, len(algos))
	for i, a := range algos {
		var ok bool
		if _, batchAlgos[i], ok = sorter(rt, a); !ok {
			return nil, fmt.Errorf("harness: the abandon mix cannot include %s (SortMany runs on the scheduler)", a.FlagName())
		}
	}
	ofLen := func(n int) [][]int32 {
		return slices.DeleteFunc(slices.Clone(inputs), func(in []int32) bool { return len(in) != n })
	}
	large := len(slices.MaxFunc(inputs, byLen))
	smallest, largest := ofLen(len(slices.MinFunc(inputs, byLen))), ofLen(large)
	return func(c int) []Request {
		if c%2 == 0 {
			return sortRows(rt, smallest, []Algorithm{MMPar}, func(Algorithm) string { return "interactive" })
		}
		batch := make([]repro.SortRequest[int32], abandonBatch)
		for i := range batch {
			batch[i].Data = make([]int32, large)
		}
		// Abandoned batches count as abandoned requests (their data is
		// garbage by contract, so nothing is verified); batches that beat
		// the deadline are verified like any sort request. The latency
		// sample is taken either way — an abandoned batch's sample is the
		// time to *give up*, which is exactly the responsiveness the
		// deadline buys.
		return []Request{{
			Label: "batch",
			N:     abandonBatch,
			Prepare: func(rng *dist.RNG) {
				for i := range batch {
					copy(batch[i].Data, largest[rng.Intn(len(largest))])
					batch[i].Algo = batchAlgos[rng.Intn(len(batchAlgos))]
				}
			},
			Do: func() Outcome {
				ctx, cancel := context.WithTimeout(context.Background(), after)
				defer cancel()
				err := rt.SortManyCtx(ctx, batch, sortOpts)
				switch {
				case errors.Is(err, repro.ErrDeadlineExceeded) || errors.Is(err, repro.ErrCanceled):
					return Abandoned
				case err != nil:
					return Failed
				}
				return OK
			},
			Check: func() bool {
				return !slices.ContainsFunc(batch, func(r repro.SortRequest[int32]) bool { return !qsort.IsSorted(r.Data) })
			},
		}}
	}, nil
}

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

// aCell is one input of the analytics mix: the shared input, its sorted
// copy (the join side), and every operator's expected result.
type aCell struct {
	in  []int32
	srt []int32 // ascending copy of in; both sides of the self merge join

	expFilter  int     // filter: surviving count
	expStarts  []int   // groupby: bucket offsets (len aNB+1)
	expAgg     []int64 // aggregate: per-bucket sums
	expTop     []int32 // topk: the aTopK largest, descending
	expJoin    int     // join: matched run count (distinct keys of srt)
	expPlanOut []int32 // plan: final stream of filter→aggregate→topk
	expPlanAgg []int64 // plan: aggregate side-output over the filtered stream
}

// newACell precomputes one cell with the sequential oracles.
func newACell(in []int32) aCell {
	c := aCell{in: in, srt: slices.Clone(in)}
	qsort.Introsort(c.srt)
	n := len(in)

	filtered := make([]int32, n)
	c.expFilter = query.SeqFilter(in, filtered, aPred)
	filtered = filtered[:c.expFilter]

	c.expStarts = query.SeqGroupBy(in, make([]int32, n), aNB, aKey)
	c.expAgg = query.SeqAggregate(in, aNB, int64(0), aLift, aKey)

	c.expTop = make([]int32, aTopK)
	c.expTop = c.expTop[:query.SeqTopK(in, c.expTop, aTopK)]

	for i := range c.srt { // distinct keys of srt = self-join run count
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

// AnalyticsMix is the analytics mix: every operator of the Runtime's query
// surface, labelled as in the Runtime's repro_query_* metrics (filter,
// groupby, aggregate, topk, join, plan), drawn uniformly over inputs ×
// operators. The operators read the shared inputs in place (none of them
// mutates its source), so the measured cost is the operator itself, end to
// end through the scheduler. Every input's expected results are precomputed
// here, once, from the sequential oracles, so a request's Check is an
// equality comparison, cheap enough to run on every request.
func AnalyticsMix(rt *repro.Runtime[int32], inputs [][]int32) func(c int) []Request {
	cells := make([]aCell, len(inputs))
	for i, in := range inputs {
		cells[i] = newACell(in)
	}
	maxSize := len(slices.MaxFunc(inputs, byLen))
	return func(int) []Request {
		dst := make([]int32, maxSize)
		joinOut := make([]repro.JoinRun[int32], maxSize)
		plan := rt.NewPlan(maxSize).
			Filter(aPred).
			Aggregate(aNB, aKey, 0, aLift, aComb).
			TopK(aTopK)
		// The last request's result, left by Do for Check.
		var (
			n      int
			starts []int
			totals []int64
			res    repro.QueryResult[int32]
		)
		var rows []Request
		row := func(op string, do func(), check func() bool) {
			rows = append(rows, Request{Label: op, Do: func() Outcome { do(); return OK }, Check: check})
		}
		for i := range cells {
			cell := &cells[i]
			row("filter",
				func() { n = rt.Filter(cell.in, dst, aPred) },
				func() bool { return n == cell.expFilter })
			row("groupby",
				func() { starts = rt.GroupBy(cell.in, dst[:len(cell.in)], aNB, aKey) },
				func() bool { return slices.Equal(starts, cell.expStarts) })
			row("aggregate",
				func() { totals = rt.Aggregate(cell.in, aNB, aKey, 0, aLift, aComb) },
				func() bool { return slices.Equal(totals, cell.expAgg) })
			row("topk",
				func() { n = rt.TopK(cell.in, dst, aTopK) },
				func() bool { return slices.Equal(dst[:n], cell.expTop) })
			row("join",
				func() { n = rt.MergeJoin(cell.srt, cell.srt, joinOut) },
				func() bool { return n == cell.expJoin })
			row("plan",
				func() { res = rt.RunPlan(plan, cell.in) },
				func() bool {
					return slices.Equal(res.Out, cell.expPlanOut) && slices.Equal(res.Aggregates, cell.expPlanAgg)
				})
		}
		return rows
	}
}
