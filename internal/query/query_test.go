package query_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/qsort"
	"repro/internal/query"
	"repro/internal/ssort"
	"repro/internal/trace"
)

// ssortOptions shrinks the samplesort quotas so TestSortJoin's 10k-element
// inputs still exercise team partitioning and recursive bucket tasks.
func ssortOptions() ssort.Options {
	return ssort.Options{Cutoff: 64, MinPerThread: 512}
}

// The property suite checks every operator against its sequential oracle
// across all registered input distributions and team sizes {1, 2, 3, 7, P}
// (1 = oracle path, powers of two = full teams, 3 and 7 = Refinement 2's
// rounded-up teams with surplus members), plus the empty-chunk edge sizes.

const propN = 10_007 // odd, so chunk boundaries never align with anything

const nb = 37 // prime bucket count: every chunk split straddles buckets

func teamSizes(s *core.Scheduler) []int {
	return []int{1, 2, 3, 7, s.MaxTeam()}
}

func propSched(t testing.TB) *core.Scheduler {
	t.Helper()
	s := core.New(core.Options{P: 8})
	t.Cleanup(s.Shutdown)
	return s
}

// forEachInput runs f on one input of every registered distribution.
func forEachInput(t *testing.T, f func(t *testing.T, kind dist.Kind, in []int32)) {
	t.Helper()
	for _, kind := range dist.Kinds {
		in := dist.Generate(kind, propN, 7)
		t.Run(kind.String(), func(t *testing.T) { f(t, kind, in) })
	}
}

func keyOf(v int32) int           { return int(uint32(v) % nb) }
func predOf(v int32) bool         { return v%3 == 0 }
func lift(a int64, v int32) int64 { return a + int64(v) }
func comb(a, b int64) int64       { return a + b }

func TestFilterMatchesOracle(t *testing.T) {
	s := propSched(t)
	op := query.NewOp[int32](s.MaxTeam())
	forEachInput(t, func(t *testing.T, _ dist.Kind, in []int32) {
		wantDst := make([]int32, len(in))
		wantN := query.SeqFilter(in, wantDst, predOf)
		for _, np := range teamSizes(s) {
			dst := make([]int32, len(in))
			s.Run(op.Filter(np, in, dst, predOf))
			if n := op.N(); n != wantN {
				t.Fatalf("np=%d: filter count = %d, want %d", np, n, wantN)
			}
			checkSlice(t, "filter", np, dst[:wantN], wantDst[:wantN])
		}
	})
}

func TestGroupByMatchesOracle(t *testing.T) {
	s := propSched(t)
	op := query.NewOp[int32](s.MaxTeam())
	forEachInput(t, func(t *testing.T, _ dist.Kind, in []int32) {
		wantGrouped := make([]int32, len(in))
		wantStarts := query.SeqGroupBy(in, wantGrouped, nb, keyOf)
		for _, np := range teamSizes(s) {
			grouped := make([]int32, len(in))
			s.Run(op.GroupBy(np, in, grouped, nb, keyOf))
			checkSlice(t, "starts", np, op.Starts(), wantStarts)
			// The scatter is stable, so the grouped slice is deterministic:
			// exact equality with the oracle, not just same-bucket-contents.
			checkSlice(t, "grouped", np, grouped, wantGrouped)
		}
	})
}

func TestAggregateMatchesOracle(t *testing.T) {
	s := propSched(t)
	op := query.NewOp[int32](s.MaxTeam())
	forEachInput(t, func(t *testing.T, _ dist.Kind, in []int32) {
		want := query.SeqAggregate(in, nb, int64(0), lift, keyOf)
		for _, np := range teamSizes(s) {
			s.Run(op.Aggregate(np, in, nb, keyOf, 0, lift, comb))
			checkSlice(t, "aggregate", np, op.Totals(), want)
		}
	})
}

// TestAggregateMinMonoid drives Aggregate with a non-sum monoid (min with
// +inf identity) to pin that nothing silently assumes addition.
func TestAggregateMinMonoid(t *testing.T) {
	s := propSched(t)
	const inf = int64(1) << 62
	minLift := func(a int64, v int32) int64 {
		if int64(v) < a {
			return int64(v)
		}
		return a
	}
	minComb := func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	}
	in := dist.Generate(dist.Staggered, propN, 11)
	want := query.SeqAggregate(in, nb, inf, minLift, keyOf)
	op := query.NewOp[int32](s.MaxTeam())
	for _, np := range teamSizes(s) {
		s.Run(op.Aggregate(np, in, nb, keyOf, inf, minLift, minComb))
		checkSlice(t, "aggregate-min", np, op.Totals(), want)
	}
}

func TestTopKMatchesOracle(t *testing.T) {
	s := propSched(t)
	op := query.NewOp[int32](s.MaxTeam())
	forEachInput(t, func(t *testing.T, _ dist.Kind, in []int32) {
		for _, k := range []int{0, 1, 10, 128, propN, propN + 5} {
			want := make([]int32, k)
			want = want[:query.SeqTopK(in, want, k)]
			for _, np := range teamSizes(s) {
				dst := make([]int32, k)
				s.Run(op.TopK(np, in, dst, k))
				n := op.N()
				if n != len(want) {
					t.Fatalf("np=%d k=%d: topk count = %d, want %d", np, k, n, len(want))
				}
				checkSlice(t, "topk", np, dst[:n], want)
			}
		}
	})
}

func TestMergeJoinMatchesOracle(t *testing.T) {
	s := propSched(t)
	op := query.NewOp[int32](s.MaxTeam())
	b := dist.Generate(dist.RandDup, propN/2, 13)
	qsort.Introsort(b)
	forEachInput(t, func(t *testing.T, _ dist.Kind, in []int32) {
		a := append([]int32(nil), in...)
		qsort.Introsort(a)
		max := len(a)
		if len(b) < max {
			max = len(b)
		}
		want := make([]query.JoinRun[int32], max)
		want = want[:query.SeqMergeJoin(a, b, want)]
		for _, np := range teamSizes(s) {
			out := make([]query.JoinRun[int32], max)
			s.Run(op.MergeJoin(np, a, b, out))
			n := op.N()
			if n != len(want) {
				t.Fatalf("np=%d: join runs = %d, want %d", np, n, len(want))
			}
			checkSlice(t, "join", np, out[:n], want)
		}
	})
}

// TestMergeJoinSelfZero joins the all-equal input with itself: one run
// covering both sides entirely — the case where materialized pairs would be
// n² and run output must stay size 1.
func TestMergeJoinSelfZero(t *testing.T) {
	s := propSched(t)
	a := dist.Generate(dist.Zero, propN, 7)
	out := make([]query.JoinRun[int32], 1)
	op := query.NewOp[int32](s.MaxTeam())
	for _, np := range teamSizes(s) {
		s.Run(op.MergeJoin(np, a, a, out))
		if n := op.N(); n != 1 {
			t.Fatalf("np=%d: self-join of constant input gave %d runs, want 1", np, op.N())
		}
		r := out[0]
		if r.Key != a[0] || r.ALo != 0 || r.AHi != propN || r.BLo != 0 || r.BHi != propN {
			t.Fatalf("np=%d: run = %+v", np, r)
		}
		if r.Pairs() != propN*propN {
			t.Fatalf("np=%d: pairs = %d", np, r.Pairs())
		}
	}
}

// TestSortJoin drives the staged composition: unsorted inputs, samplesort
// roots, then the team join.
func TestSortJoin(t *testing.T) {
	s := propSched(t)
	in1 := dist.Generate(dist.Staggered, propN, 3)
	in2 := dist.Generate(dist.RandDup, propN-511, 5)

	wantA := append([]int32(nil), in1...)
	wantB := append([]int32(nil), in2...)
	qsort.Introsort(wantA)
	qsort.Introsort(wantB)
	want := make([]query.JoinRun[int32], len(wantB))
	want = want[:query.SeqMergeJoin(wantA, wantB, want)]

	a := append([]int32(nil), in1...)
	b := append([]int32(nil), in2...)
	out := make([]query.JoinRun[int32], len(b))
	g := s.NewGroup()
	n, err := query.SortJoin(g, query.NewOp[int32](s.MaxTeam()), nil, a, b, out, ssortOptions())
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("sortjoin runs = %d, want %d", n, len(want))
	}
	checkSlice(t, "sortjoin", s.MaxTeam(), out[:n], want)
}

// TestEmptyAndTinyInputs pins the edge cases where chunks are empty: more
// team members than elements, single elements, and zero elements.
func TestEmptyAndTinyInputs(t *testing.T) {
	s := propSched(t)
	op := query.NewOp[int32](s.MaxTeam())
	for _, n := range []int{0, 1, 2, 5} {
		in := dist.Generate(dist.RandDup, n, 3)
		srt := append([]int32(nil), in...)
		qsort.Introsort(srt)
		for _, np := range teamSizes(s) {
			dst := make([]int32, n)
			s.Run(op.Filter(np, in, dst, predOf))
			wantDst := make([]int32, n)
			wantN := query.SeqFilter(in, wantDst, predOf)
			if cnt := op.N(); cnt != wantN {
				t.Fatalf("n=%d np=%d: filter count %d, want %d", n, np, cnt, wantN)
			}

			grouped := make([]int32, n)
			s.Run(op.GroupBy(np, in, grouped, nb, keyOf))
			wantGrouped := make([]int32, n)
			checkSlice(t, "tiny-starts", np, op.Starts(), query.SeqGroupBy(in, wantGrouped, nb, keyOf))

			s.Run(op.Aggregate(np, in, nb, keyOf, 0, lift, comb))
			checkSlice(t, "tiny-agg", np, op.Totals(), query.SeqAggregate(in, nb, int64(0), lift, keyOf))

			top := make([]int32, 3)
			s.Run(op.TopK(np, in, top, 3))
			topN := op.N()
			wantTop := make([]int32, 3)
			wantTop = wantTop[:query.SeqTopK(in, wantTop, 3)]
			if topN != len(wantTop) {
				t.Fatalf("n=%d np=%d: topk count %d, want %d", n, np, topN, len(wantTop))
			}
			checkSlice(t, "tiny-topk", np, top[:topN], wantTop)

			out := make([]query.JoinRun[int32], n+1)
			s.Run(op.MergeJoin(np, srt, srt, out))
			wantOut := make([]query.JoinRun[int32], n+1)
			if jn, want := op.N(), query.SeqMergeJoin(srt, srt, wantOut); jn != want {
				t.Fatalf("n=%d np=%d: join runs %d, want %d", n, np, jn, want)
			}
		}
	}
}

// TestGroupByStability checks that elements of one bucket keep their source
// order — the property that makes team GroupBy deterministic.
func TestGroupByStability(t *testing.T) {
	s := propSched(t)
	// An element is a record: its key in the high half, its source position
	// (seq) in the low half.
	n := 5000
	src := make([]int64, n)
	keys := dist.Generate(dist.RandDup, n, 3)
	for i := range src {
		src[i] = int64(keys[i])<<32 | int64(i)
	}
	key := func(r int64) int { return int(uint32(r>>32) % nb) }
	seq := func(r int64) int32 { return int32(r) }
	op := query.NewOp[int64](s.MaxTeam())
	for _, np := range teamSizes(s) {
		grouped := make([]int64, n)
		s.Run(op.GroupBy(np, src, grouped, nb, key))
		starts := op.Starts()
		for b := 0; b < nb; b++ {
			for i := starts[b] + 1; i < starts[b+1]; i++ {
				if seq(grouped[i]) <= seq(grouped[i-1]) {
					t.Fatalf("np=%d: bucket %d not stable at %d: seq %d after %d",
						np, b, i, seq(grouped[i]), seq(grouped[i-1]))
				}
				if key(grouped[i]) != b {
					t.Fatalf("np=%d: element of bucket %d landed in bucket range %d",
						np, key(grouped[i]), b)
				}
			}
		}
	}
}

// TestGroupByBarriers pins the cost of the group-by's synchronization: a
// traced width-2 GroupBy on P = 2 waits at exactly three barriers per
// member, Hist.Merge's two and the trailing one. The bucket starts are each
// member's own prefix sum (par.Hist.Cursors), not a team scan.
func TestGroupByBarriers(t *testing.T) {
	s := core.New(core.Options{P: 2})
	defer s.Shutdown()
	src := dist.Generate(dist.Random, 4096, 5)
	want := make([]int32, len(src))
	query.SeqGroupBy(src, want, nb, keyOf)
	grouped := make([]int32, len(src))
	s.StartTrace()
	s.Run(query.NewOp[int32](2).GroupBy(2, src, grouped, nb, keyOf))
	s.StopTrace()
	checkSlice(t, "traced groupby", 2, grouped, want)

	evs := s.TraceSnapshot().Events
	tid := map[int]uint64{} // ring → the width-2 execution it took part in
	for _, e := range evs {
		if e.Kind == trace.EvStart && e.X == 2 {
			tid[e.Ring] = e.Arg
		}
	}
	if len(tid) != 2 {
		t.Fatalf("%d rings ran a width-2 execution, want 2", len(tid))
	}
	enters, leaves := map[int]int{}, map[int]int{}
	for _, e := range evs {
		if id, ok := tid[e.Ring]; !ok || e.Arg != id {
			continue
		}
		switch e.Kind {
		case trace.EvBarrierEnter:
			enters[e.Ring]++
		case trace.EvBarrierLeave:
			leaves[e.Ring]++
		}
	}
	for ring := range tid {
		if enters[ring] != 3 || leaves[ring] != 3 {
			t.Errorf("ring %d: %d barrier enters and %d leaves, want 3 of each", ring, enters[ring], leaves[ring])
		}
	}
}

// TestCollectiveReuse drives one team task through many rounds in which
// every operator runs twice back to back on the same state, with nothing in
// between — the in-team form every operator documents, and the reuse
// pattern Plan depends on. An operator that returned before its trailing
// barrier would let a fast member's second call overwrite state a slow
// member still reads in the first, which the race detector reports.
func TestCollectiveReuse(t *testing.T) {
	s := propSched(t)
	np := s.MaxTeam()
	in := dist.Generate(dist.Random, 4096, 9)
	srt := append([]int32(nil), in...)
	qsort.Introsort(srt)

	wantDst := make([]int32, len(in))
	wantN := query.SeqFilter(in, wantDst, predOf)
	wantGrouped := make([]int32, len(in))
	wantStarts := query.SeqGroupBy(in, wantGrouped, nb, keyOf)
	wantAgg := query.SeqAggregate(in, nb, int64(0), lift, keyOf)
	wantTop := make([]int32, 64)
	wantTop = wantTop[:query.SeqTopK(in, wantTop, 64)]
	wantJoin := make([]query.JoinRun[int32], len(in))
	wantJoin = wantJoin[:query.SeqMergeJoin(srt, srt, wantJoin)]

	f := query.NewFilterer[int32](np)
	gr := query.NewGrouper[int32](np, nb)
	ag := query.NewAggregator[int32](np, nb, 0, lift, comb)
	tk := query.NewTopKer[int32](np, 64)
	jn := query.NewJoiner[int32](np)

	dst := make([]int32, len(in))
	grouped := make([]int32, len(in))
	top := make([]int32, 64)
	joined := make([]query.JoinRun[int32], len(in))

	const rounds = 20
	fail := make(chan string, 1)
	s.Run(core.Func(np, func(ctx *core.Ctx) {
		report := func(msg string) {
			select {
			case fail <- msg:
			default:
			}
		}
		for round := 0; round < rounds; round++ {
			if a, b := f.Filter(ctx, in, dst, predOf), f.Filter(ctx, in, dst, predOf); a != wantN || b != wantN {
				report("filter count changed across reuse")
			}
			gr.GroupBy(ctx, in, grouped, keyOf)
			if starts := gr.GroupBy(ctx, in, grouped, keyOf); starts[nb] != wantStarts[nb] || starts[0] != wantStarts[0] {
				report("groupby starts changed across reuse")
			}
			ag.Aggregate(ctx, in, keyOf)
			totals := ag.Aggregate(ctx, in, keyOf)
			for b := range totals {
				if totals[b] != wantAgg[b] {
					report("aggregate totals changed across reuse")
					break
				}
			}
			if a, b := tk.TopK(ctx, in, top, 64), tk.TopK(ctx, in, top, 64); a != len(wantTop) || b != len(wantTop) {
				report("topk count changed across reuse")
			}
			if a, b := jn.MergeJoin(ctx, srt, srt, joined), jn.MergeJoin(ctx, srt, srt, joined); a != len(wantJoin) || b != len(wantJoin) {
				report("join runs changed across reuse")
			}
		}
	}))
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	checkSlice(t, "reuse-filter", np, dst[:wantN], wantDst[:wantN])
	checkSlice(t, "reuse-groupby", np, grouped, wantGrouped)
	checkSlice(t, "reuse-topk", np, top[:len(wantTop)], wantTop)
	checkSlice(t, "reuse-join", np, joined[:len(wantJoin)], wantJoin)
}

// TestOpRebinding binds one Op in turn to every operator, round after round,
// under two bucket counts, two k values and two folds: each binding runs on
// the team state the bindings before it built, rebuilt (nb changed, k grew)
// or kept (nb unchanged, k shrank), and every result must match its oracle.
func TestOpRebinding(t *testing.T) {
	s := propSched(t)
	in := dist.Generate(dist.RandDup, propN, 21)
	srt := append([]int32(nil), in...)
	qsort.Introsort(srt)
	wantRuns := make([]query.JoinRun[int32], len(in))
	wantRuns = wantRuns[:query.SeqMergeJoin(srt, srt, wantRuns)]
	op := query.NewOp[int32](s.MaxTeam())
	got, want := make([]int32, len(in)), make([]int32, len(in))
	runs := make([]query.JoinRun[int32], len(in))
	count := func(a int64, _ int32) int64 { return a + 1 }
	for round, shape := range []struct{ nb, k int }{{nb, 64}, {nb, 200}, {5, 200}, {5, 64}} {
		np := teamSizes(s)[1+round%4]
		key := func(v int32) int { return int(uint32(v) % uint32(shape.nb)) }
		lift := []func(int64, int32) int64{lift, count}[round%2]

		s.Run(op.Filter(np, in, got, predOf))
		wantN := query.SeqFilter(in, want, predOf)
		checkSlice(t, "rebind-filter", np, got[:op.N()], want[:wantN])

		s.Run(op.GroupBy(np, in, got, shape.nb, key))
		checkSlice(t, "rebind-starts", np, op.Starts(), query.SeqGroupBy(in, want, shape.nb, key))
		checkSlice(t, "rebind-groupby", np, got, want)

		s.Run(op.Aggregate(np, in, shape.nb, key, 0, lift, comb))
		checkSlice(t, "rebind-aggregate", np, op.Totals(), query.SeqAggregate(in, shape.nb, int64(0), lift, key))

		s.Run(op.TopK(np, in, got, shape.k))
		wantN = query.SeqTopK(in, want, shape.k)
		checkSlice(t, "rebind-topk", np, got[:op.N()], want[:wantN])

		s.Run(op.MergeJoin(np, srt, srt, runs))
		checkSlice(t, "rebind-join", np, runs[:op.N()], wantRuns)
	}
}

func checkSlice[T comparable](t *testing.T, what string, np int, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("np=%d: %s length %d, want %d", np, what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("np=%d: %s differs at %d: %v != %v", np, what, i, got[i], want[i])
		}
	}
}
