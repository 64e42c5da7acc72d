package repro

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/qsort"
	"repro/internal/query"
	"repro/internal/stats"
)

// TestRuntimeAnalytics drives every public analytics entry point of the
// Runtime against the sequential oracles and checks the repro_query_*
// metric families move: per-operator latency histograms and request
// counters, with the per-group pending gauges drained back to zero.
func TestRuntimeAnalytics(t *testing.T) {
	rt := NewRuntime[int32](Options{P: 2})
	defer rt.Close()
	const n, nb, k = 20000, 64, 25
	src := GenerateInput(RandDup, n, 7)
	key := func(v int32) int { return int(uint32(v)) % nb }
	pred := func(v int32) bool { return v%2 == 0 }
	lift := func(a int64, v int32) int64 { return a + int64(v) }
	comb := func(a, b int64) int64 { return a + b }

	// Filter.
	want := make([]int32, n)
	want = want[:query.SeqFilter(src, want, pred)]
	dst := make([]int32, n)
	if got := rt.Filter(src, dst, pred); got != len(want) {
		t.Fatalf("Filter kept %d, want %d", got, len(want))
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Filter output differs at %d", i)
		}
	}

	// GroupBy.
	wantGrouped := make([]int32, n)
	wantStarts := query.SeqGroupBy(src, wantGrouped, nb, key)
	grouped := make([]int32, n)
	starts := rt.GroupBy(src, grouped, nb, key)
	for b := range wantStarts {
		if starts[b] != wantStarts[b] {
			t.Fatalf("GroupBy starts differ at bucket %d: %d != %d", b, starts[b], wantStarts[b])
		}
	}
	for i := range wantGrouped {
		if grouped[i] != wantGrouped[i] {
			t.Fatalf("GroupBy output differs at %d", i)
		}
	}

	// Aggregate.
	wantAgg := query.SeqAggregate(src, nb, int64(0), lift, key)
	for b, tot := range rt.Aggregate(src, nb, key, 0, lift, comb) {
		if tot != wantAgg[b] {
			t.Fatalf("Aggregate bucket %d = %d, want %d", b, tot, wantAgg[b])
		}
	}

	// TopK.
	wantTop := make([]int32, k)
	wantTop = wantTop[:query.SeqTopK(src, wantTop, k)]
	top := make([]int32, k)
	if got := rt.TopK(src, top, k); got != len(wantTop) {
		t.Fatalf("TopK selected %d, want %d", got, len(wantTop))
	}
	for i := range wantTop {
		if top[i] != wantTop[i] {
			t.Fatalf("TopK output differs at %d: %d != %d", i, top[i], wantTop[i])
		}
	}

	// MergeJoin over pre-sorted sides, then SortJoin from unsorted copies;
	// both must agree with the sequential join of the sorted input.
	srt := append([]int32(nil), src...)
	qsort.Introsort(srt)
	wantRuns := make([]JoinRun[int32], n)
	wantRuns = wantRuns[:query.SeqMergeJoin(srt, srt, wantRuns)]
	runs := make([]JoinRun[int32], n)
	if got := rt.MergeJoin(srt, srt, runs); got != len(wantRuns) {
		t.Fatalf("MergeJoin found %d runs, want %d", got, len(wantRuns))
	}
	for i := range wantRuns {
		if runs[i] != wantRuns[i] {
			t.Fatalf("MergeJoin run %d = %+v, want %+v", i, runs[i], wantRuns[i])
		}
	}
	a, b := append([]int32(nil), src...), append([]int32(nil), src...)
	if got := rt.SortJoin(a, b, runs, SSOptions{}); got != len(wantRuns) {
		t.Fatalf("SortJoin found %d runs, want %d", got, len(wantRuns))
	}

	// Plan: filter → aggregate (side output) → topk as one request.
	wantPlanAgg := query.SeqAggregate(want, nb, int64(0), lift, key)
	wantPlanOut := make([]int32, k)
	wantPlanOut = wantPlanOut[:query.SeqTopK(want, wantPlanOut, k)]
	plan := rt.NewPlan(n).Filter(pred).Aggregate(nb, key, 0, lift, comb).TopK(k)
	res := rt.RunPlan(plan, src)
	if len(res.Out) != len(wantPlanOut) {
		t.Fatalf("RunPlan returned %d elements, want %d", len(res.Out), len(wantPlanOut))
	}
	for i := range wantPlanOut {
		if res.Out[i] != wantPlanOut[i] {
			t.Fatalf("RunPlan output differs at %d", i)
		}
	}
	for b := range wantPlanAgg {
		if res.Aggregates[b] != wantPlanAgg[b] {
			t.Fatalf("RunPlan aggregate bucket %d = %d, want %d", b, res.Aggregates[b], wantPlanAgg[b])
		}
	}

	// Metric families: one request per operator except join (MergeJoin +
	// SortJoin share the label).
	vals := rt.Metrics().Values()
	for op, wantN := range map[string]float64{
		"filter": 1, "groupby": 1, "aggregate": 1, "topk": 1, "join": 2, "plan": 1,
	} {
		if got := vals[`repro_queries_total{op="`+op+`"}`]; got != wantN {
			t.Fatalf("queries_total{op=%q} = %v, want %v", op, got, wantN)
		}
		if got := vals[`repro_query_latency_seconds_count{op="`+op+`"}`]; got != wantN {
			t.Fatalf("latency count{op=%q} = %v, want %v", op, got, wantN)
		}
		if got := vals[`repro_query_latency_seconds_sum{op="`+op+`"}`]; got <= 0 {
			t.Fatalf("latency sum{op=%q} = %v, want > 0", op, got)
		}
		if got := vals[`repro_group_pending_queries{group="`+op+`"}`]; got != 0 {
			t.Fatalf("pending_queries{group=%q} = %v after drain, want 0", op, got)
		}
	}

	out := rt.Metrics().Render()
	for _, wantLine := range []string{
		"# TYPE repro_query_latency_seconds histogram",
		`repro_query_latency_seconds_bucket{op="join",le="+Inf"} 2`,
		`repro_group_pending_queries{group="plan"} 0`,
	} {
		if !strings.Contains(out, wantLine) {
			t.Fatalf("exposition lacks %q:\n%s", wantLine, out)
		}
	}
}

// TestRuntimeAnalyticsConcurrent hammers the analytics surface from
// concurrent client goroutines — under -race this checks the per-request
// group isolation, the pooled Ops and the sharded metric writes against
// live scrapes. The inputs are large enough that every request forms a team
// of two, and each client has its own bucket count and k, so a pooled Op
// passes between clients and shapes, rebuilding or reusing its team state.
func TestRuntimeAnalyticsConcurrent(t *testing.T) {
	rt := NewRuntime[int32](Options{P: 2})
	defer rt.Close()
	const n = 1 << 14 // core.BestNp(n, query.DefaultMinPerThread, 2) = 2
	pred := func(v int32) bool { return v%2 == 0 }
	lift := func(a int64, v int32) int64 { return a + int64(v) }
	comb := func(a, b int64) int64 { return a + b }

	done := make(chan error, 3)
	for c := 0; c < 3; c++ {
		go func(c int) {
			nb, k := 16<<c, 10+7*c
			key := func(v int32) int { return int(uint32(v)) % nb }
			src := GenerateInput(Staggered, n, uint64(c+1))
			srt := append([]int32(nil), src...)
			qsort.Introsort(srt)
			dst := make([]int32, n)
			runs := make([]JoinRun[int32], n)
			plan := rt.NewPlan(n).Filter(pred).TopK(k)
			wantN := query.SeqFilter(src, make([]int32, n), pred)
			wantStarts := query.SeqGroupBy(src, make([]int32, n), nb, key)
			wantAgg := query.SeqAggregate(src, nb, int64(0), lift, key)
			wantTop := make([]int32, k)
			wantTop = wantTop[:query.SeqTopK(src, wantTop, k)]
			wantRuns := query.SeqMergeJoin(srt, srt, make([]JoinRun[int32], n))
			fail := func(i int, format string, args ...any) {
				done <- fmt.Errorf("client %d iter %d: "+format, append([]any{c, i}, args...)...)
			}
			for i := 0; i < 8; i++ {
				if got := rt.Filter(src, dst, pred); got != wantN {
					fail(i, "Filter kept %d, want %d", got, wantN)
					return
				}
				if starts := rt.GroupBy(src, dst, nb, key); !slices.Equal(starts, wantStarts) {
					fail(i, "GroupBy starts %v, want %v", starts, wantStarts)
					return
				}
				if agg := rt.Aggregate(src, nb, key, 0, lift, comb); !slices.Equal(agg, wantAgg) {
					fail(i, "Aggregate totals %v, want %v", agg, wantAgg)
					return
				}
				if got := rt.TopK(src, dst, k); !slices.Equal(dst[:got], wantTop) {
					fail(i, "TopK selected %v, want %v", dst[:got], wantTop)
					return
				}
				if got := rt.MergeJoin(srt, srt, runs); got != wantRuns {
					fail(i, "MergeJoin found %d runs, want %d", got, wantRuns)
					return
				}
				if res := rt.RunPlan(plan, src); len(res.Out) > k {
					fail(i, "RunPlan returned %d elements", len(res.Out))
					return
				}
			}
			done <- nil
		}(c)
	}
	for c := 0; c < 3; c++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := rt.Metrics().Values()[`repro_queries_total{op="filter"}`]; got != 24 {
		t.Fatalf("queries_total{op=filter} = %v, want 24", got)
	}
	if got := rt.Scheduler().Stats()[stats.TeamsFormed]; got < 3*8*5 {
		t.Fatalf("%d teams formed, want one per operator request at least (120)", got)
	}
}

// TestRunPlanAfterClose pins Close's "results zero" for a plan: a warm plan
// run on a closed Runtime must not return the views and the survivor count
// of its last run as this run's result.
func TestRunPlanAfterClose(t *testing.T) {
	rt := NewRuntime[int32](Options{P: 2})
	const n = 1 << 15
	src := make([]int32, n)
	for i := range src {
		src[i] = int32(i)
	}
	plan := rt.NewPlan(n).
		Filter(func(v int32) bool { return v%2 == 0 }).
		GroupBy(4, func(v int32) int { return int(v) % 4 }).
		Aggregate(4, func(v int32) int { return int(v) % 4 }, 0,
			func(a int64, v int32) int64 { return a + int64(v) },
			func(a, b int64) int64 { return a + b }).
		TopK(5)
	if res := rt.RunPlan(plan, src); len(res.Out) != 5 || res.Out[0] != n-2 {
		t.Fatalf("warm RunPlan returned %v, want the 5 largest even values", res.Out)
	}
	rt.Close()
	res := rt.RunPlan(plan, make([]int32, 100))
	if len(res.Out) != 0 || res.Starts != nil || res.Aggregates != nil {
		t.Fatalf("RunPlan after Close returned %+v, want the zero result", res)
	}
}
