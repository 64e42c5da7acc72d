package query_test

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/query"
)

// planOracle composes the sequential oracles the same way the plan under
// test chains its stages: filter → aggregate (side-output) → topk.
func planOracle(in []int32, k int) (out []int32, agg []int64) {
	filtered := make([]int32, len(in))
	filtered = filtered[:query.SeqFilter(in, filtered, predOf)]
	agg = query.SeqAggregate(filtered, nb, int64(0), lift, keyOf)
	out = make([]int32, k)
	out = out[:query.SeqTopK(filtered, out, k)]
	return out, agg
}

// execute runs p on g and fails the test on an error: the groups of these
// tests are never canceled and their scheduler outlives them.
func execute(t testing.TB, p *query.Plan[int32], g *core.Group, in []int32) query.Result[int32] {
	t.Helper()
	res, err := p.Execute(g, in)
	if err != nil {
		t.Fatalf("Plan.Execute: %v", err)
	}
	return res
}

// TestPlanMatchesOracleComposition checks a multi-stage plan against the
// composition of the sequential oracles across every distribution, and that
// the same warm plan stays correct when re-executed on different inputs.
func TestPlanMatchesOracleComposition(t *testing.T) {
	s := propSched(t)
	const k = 64
	p := query.NewPlan[int32](propN, s.MaxTeam(), 512).
		Filter(predOf).
		Aggregate(nb, keyOf, 0, lift, comb).
		TopK(k)
	g := s.NewGroup()
	forEachInput(t, func(t *testing.T, _ dist.Kind, in []int32) {
		wantOut, wantAgg := planOracle(in, k)
		res := execute(t, p, g, in)
		checkSlice(t, "plan-out", 0, res.Out, wantOut)
		checkSlice(t, "plan-agg", 0, res.Aggregates, wantAgg)
		if res.Starts != nil {
			t.Fatal("plan without a GroupBy stage reported Starts")
		}
	})
}

// TestPlanGroupByStage checks the GroupBy stage inside a chain: the stream
// must pass through reordered with offsets published.
func TestPlanGroupByStage(t *testing.T) {
	s := propSched(t)
	in := dist.Generate(dist.RandDup, propN, 21)
	p := query.NewPlan[int32](propN, s.MaxTeam(), 512).
		Filter(predOf).
		GroupBy(nb, keyOf)
	g := s.NewGroup()

	filtered := make([]int32, len(in))
	filtered = filtered[:query.SeqFilter(in, filtered, predOf)]
	wantGrouped := make([]int32, len(filtered))
	wantStarts := query.SeqGroupBy(filtered, wantGrouped, nb, keyOf)

	res := execute(t, p, g, in)
	checkSlice(t, "plan-grouped", 0, res.Out, wantGrouped)
	checkSlice(t, "plan-starts", 0, res.Starts, wantStarts)
}

// TestPlanEdgeSizes runs the plan at the empty-chunk edge sizes, including
// inputs smaller than the widest team.
func TestPlanEdgeSizes(t *testing.T) {
	s := propSched(t)
	const k = 3
	p := query.NewPlan[int32](propN, s.MaxTeam(), 512).
		Filter(predOf).
		Aggregate(nb, keyOf, 0, lift, comb).
		TopK(k)
	g := s.NewGroup()
	for _, n := range []int{0, 1, 2, 5} {
		in := dist.Generate(dist.RandDup, n, 3)
		wantOut, wantAgg := planOracle(in, k)
		res := execute(t, p, g, in)
		checkSlice(t, "edge-out", n, res.Out, wantOut)
		checkSlice(t, "edge-agg", n, res.Aggregates, wantAgg)
	}
}

// TestPlanExecuteWarmAllocs pins the allocation contract of Plan.Execute:
// once the plan and group are warm, re-executing allocates nothing beyond
// the documented buffers (which are built by NewPlan, not Execute) — no
// per-task closures and no per-element allocations. What remains is the
// scheduler-side admission cost of injecting each stage from outside a
// worker (Group.Run per stage; the zero-alloc gate covers interior spawns
// only), a small constant per stage. The essential assertion is that the
// total does not scale with input size.
func TestPlanExecuteWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := propSched(t)
	const n = 1 << 15 // large enough that per-element allocs would explode the count
	const stages = 3
	in := dist.Generate(dist.Staggered, n, 5)
	p := query.NewPlan[int32](n, s.MaxTeam(), 512).
		Filter(predOf).
		Aggregate(nb, keyOf, 0, lift, comb).
		TopK(100)
	g := s.NewGroup()
	execute(t, p, g, in) // warm: first run settles lazily-grown scheduler state

	avg := testing.AllocsPerRun(20, func() {
		res := execute(t, p, g, in)
		if len(res.Aggregates) != nb {
			t.Fatal("bad result")
		}
	})
	if max := float64(6 * stages); avg > max {
		t.Fatalf("warm Plan.Execute allocates %.1f objects/run, want ≤ %.0f (constant per stage)", avg, max)
	}
}

// TestPlanCapacityPanic pins the documented capacity contract.
func TestPlanCapacityPanic(t *testing.T) {
	s := propSched(t)
	p := query.NewPlan[int32](8, s.MaxTeam(), 0).Filter(predOf)
	g := s.NewGroup()
	defer func() {
		if recover() == nil {
			t.Fatal("Execute over capacity did not panic")
		}
	}()
	p.Execute(g, make([]int32, 9))
}

// TestPlanReusableGroup pins that Execute leaves its group reusable: other
// tasks can run in the same group before and after.
func TestPlanReusableGroup(t *testing.T) {
	s := propSched(t)
	in := dist.Generate(dist.Random, 4096, 17)
	p := query.NewPlan[int32](len(in), s.MaxTeam(), 512).Filter(predOf)
	g := s.NewGroup()

	ran := false
	g.Run(core.Solo(func(*core.Ctx) { ran = true }))
	res := execute(t, p, g, in)
	g.Run(core.Solo(func(*core.Ctx) { ran = ran && true }))
	g.Wait()

	want := make([]int32, len(in))
	want = want[:query.SeqFilter(in, want, predOf)]
	checkSlice(t, "group-reuse", 0, res.Out, want)
	if !ran {
		t.Fatal("solo task did not run")
	}
}

// checkNoResult pins what Execute returns for an execution a stage did not
// complete: the error, and the zero Result — not the views and the stale
// survivor count of the execution before it.
func checkNoResult(t *testing.T, res query.Result[int32], err, want error) {
	t.Helper()
	if !errors.Is(err, want) {
		t.Fatalf("Execute error = %v, want %v", err, want)
	}
	if res.Out != nil || res.Starts != nil || res.Aggregates != nil {
		t.Fatalf("failed Execute returned %+v, want the zero Result", res)
	}
}

// TestPlanExecuteAfterShutdown: every stage is refused, and the warm plan's
// previous result must not come back as this one's.
func TestPlanExecuteAfterShutdown(t *testing.T) {
	s := core.New(core.Options{P: 2})
	p := query.NewPlan[int32](1<<15, s.MaxTeam(), 512).
		Filter(func(v int32) bool { return v%2 == 0 }).
		GroupBy(nb, keyOf).
		Aggregate(nb, keyOf, 0, lift, comb).
		TopK(5)
	g := s.NewGroup()
	in := dist.Generate(dist.Sorted, 1<<15, 1)
	if res := execute(t, p, g, in); len(res.Out) != 5 {
		t.Fatalf("warm run selected %d elements, want 5", len(res.Out))
	}
	s.Shutdown()
	res, err := p.Execute(g, make([]int32, 100))
	checkNoResult(t, res, err, core.ErrShutdown)
}

// TestPlanExecuteStopsAtCanceledStage cancels the group from inside the
// first stage: that stage runs to its end (cancellation is cooperative),
// the second is never submitted, and once the group is reset the plan runs
// again.
func TestPlanExecuteStopsAtCanceledStage(t *testing.T) {
	s := propSched(t)
	g := s.NewGroup()
	boom := errors.New("boom")
	var cancel atomic.Bool
	var second atomic.Int64
	p := query.NewPlan[int32](propN, s.MaxTeam(), 512).
		Filter(func(v int32) bool {
			if cancel.Load() {
				g.Cancel(boom)
			}
			return predOf(v)
		}).
		Filter(func(int32) bool { second.Add(1); return true })
	in := dist.Generate(dist.Random, propN, 9)
	want := slices.Clone(execute(t, p, g, in).Out)

	cancel.Store(true)
	second.Store(0)
	res, err := p.Execute(g, in)
	checkNoResult(t, res, err, boom)
	if n := second.Load(); n != 0 {
		t.Fatalf("the stage after the canceled one evaluated its predicate %d times", n)
	}

	// A group canceled before the first stage refuses it.
	res, err = p.Execute(g, in)
	checkNoResult(t, res, err, boom)

	cancel.Store(false)
	g.Reset()
	checkSlice(t, "after-reset", 0, execute(t, p, g, in).Out, want)
}
