package query_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/qsort"
	"repro/internal/query"
	"repro/internal/ssort"
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
	forEachInput(t, func(t *testing.T, _ dist.Kind, in []int32) {
		wantDst := make([]int32, len(in))
		wantN := query.SeqFilter(in, wantDst, predOf)
		for _, np := range teamSizes(s) {
			dst := make([]int32, len(in))
			var n int
			s.Run(query.Filter(np, in, dst, predOf, &n))
			if n != wantN {
				t.Fatalf("np=%d: filter count = %d, want %d", np, n, wantN)
			}
			checkSlice(t, "filter", np, dst[:n], wantDst[:wantN])
		}
	})
}

func TestGroupByMatchesOracle(t *testing.T) {
	s := propSched(t)
	forEachInput(t, func(t *testing.T, _ dist.Kind, in []int32) {
		wantGrouped := make([]int32, len(in))
		wantStarts := query.SeqGroupBy(in, wantGrouped, nb, keyOf)
		for _, np := range teamSizes(s) {
			grouped := make([]int32, len(in))
			starts := make([]int, nb+1)
			s.Run(query.GroupBy(np, in, grouped, nb, keyOf, starts))
			checkSlice(t, "starts", np, starts, wantStarts)
			// The scatter is stable, so the grouped slice is deterministic:
			// exact equality with the oracle, not just same-bucket-contents.
			checkSlice(t, "grouped", np, grouped, wantGrouped)
		}
	})
}

func TestAggregateMatchesOracle(t *testing.T) {
	s := propSched(t)
	forEachInput(t, func(t *testing.T, _ dist.Kind, in []int32) {
		want := query.SeqAggregate(in, nb, int64(0), lift, keyOf)
		for _, np := range teamSizes(s) {
			got := make([]int64, nb)
			s.Run(query.Aggregate(np, in, nb, keyOf, 0, lift, comb, got))
			checkSlice(t, "aggregate", np, got, want)
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
	for _, np := range teamSizes(s) {
		got := make([]int64, nb)
		s.Run(query.Aggregate(np, in, nb, keyOf, inf, minLift, minComb, got))
		checkSlice(t, "aggregate-min", np, got, want)
	}
}

func TestTopKMatchesOracle(t *testing.T) {
	s := propSched(t)
	forEachInput(t, func(t *testing.T, _ dist.Kind, in []int32) {
		for _, k := range []int{0, 1, 10, 128, propN, propN + 5} {
			want := make([]int32, k)
			want = want[:query.SeqTopK(in, want, k)]
			for _, np := range teamSizes(s) {
				dst := make([]int32, k)
				var n int
				s.Run(query.TopK(np, in, dst, k, &n))
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
			var n int
			s.Run(query.MergeJoin(np, a, b, out, &n))
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
	for _, np := range teamSizes(s) {
		var n int
		s.Run(query.MergeJoin(np, a, a, out, &n))
		if n != 1 {
			t.Fatalf("np=%d: self-join of constant input gave %d runs, want 1", np, n)
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
	n, err := query.SortJoin(g, s.MaxTeam(), a, b, out, ssortOptions())
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
	for _, n := range []int{0, 1, 2, 5} {
		in := dist.Generate(dist.RandDup, n, 3)
		srt := append([]int32(nil), in...)
		qsort.Introsort(srt)
		for _, np := range teamSizes(s) {
			dst := make([]int32, n)
			var cnt int
			s.Run(query.Filter(np, in, dst, predOf, &cnt))
			wantDst := make([]int32, n)
			wantN := query.SeqFilter(in, wantDst, predOf)
			if cnt != wantN {
				t.Fatalf("n=%d np=%d: filter count %d, want %d", n, np, cnt, wantN)
			}

			grouped := make([]int32, n)
			starts := make([]int, nb+1)
			s.Run(query.GroupBy(np, in, grouped, nb, keyOf, starts))
			wantGrouped := make([]int32, n)
			checkSlice(t, "tiny-starts", np, starts, query.SeqGroupBy(in, wantGrouped, nb, keyOf))

			agg := make([]int64, nb)
			s.Run(query.Aggregate(np, in, nb, keyOf, 0, lift, comb, agg))
			checkSlice(t, "tiny-agg", np, agg, query.SeqAggregate(in, nb, int64(0), lift, keyOf))

			top := make([]int32, 3)
			var topN int
			s.Run(query.TopK(np, in, top, 3, &topN))
			wantTop := make([]int32, 3)
			wantTop = wantTop[:query.SeqTopK(in, wantTop, 3)]
			if topN != len(wantTop) {
				t.Fatalf("n=%d np=%d: topk count %d, want %d", n, np, topN, len(wantTop))
			}
			checkSlice(t, "tiny-topk", np, top[:topN], wantTop)

			out := make([]query.JoinRun[int32], n+1)
			var jn int
			s.Run(query.MergeJoin(np, srt, srt, out, &jn))
			wantOut := make([]query.JoinRun[int32], n+1)
			if want := query.SeqMergeJoin(srt, srt, wantOut); jn != want {
				t.Fatalf("n=%d np=%d: join runs %d, want %d", n, np, jn, want)
			}
		}
	}
}

// TestGroupByStability checks that elements of one bucket keep their source
// order — the property that makes team GroupBy deterministic.
func TestGroupByStability(t *testing.T) {
	s := propSched(t)
	type rec struct{ key, seq int32 }
	n := 5000
	src := make([]rec, n)
	keys := dist.Generate(dist.RandDup, n, 3)
	for i := range src {
		src[i] = rec{key: keys[i], seq: int32(i)}
	}
	key := func(r rec) int { return int(uint32(r.key) % nb) }
	for _, np := range teamSizes(s) {
		grouped := make([]rec, n)
		starts := make([]int, nb+1)
		s.Run(query.GroupBy(np, src, grouped, nb, key, starts))
		for b := 0; b < nb; b++ {
			for i := starts[b] + 1; i < starts[b+1]; i++ {
				if grouped[i].seq <= grouped[i-1].seq {
					t.Fatalf("np=%d: bucket %d not stable at %d: seq %d after %d",
						np, b, i, grouped[i].seq, grouped[i-1].seq)
				}
				if key(grouped[i]) != b {
					t.Fatalf("np=%d: element of bucket %d landed in bucket range %d",
						np, key(grouped[i]), b)
				}
			}
		}
	}
}

// TestCollectiveReuse drives one team task through many consecutive
// collective operator calls on the same state objects — the in-team form
// every operator documents, and the reuse pattern Plan depends on.
func TestCollectiveReuse(t *testing.T) {
	s := propSched(t)
	np := s.MaxTeam()
	in := dist.Generate(dist.Random, 4096, 9)
	srt := append([]int32(nil), in...)
	qsort.Introsort(srt)

	wantDst := make([]int32, len(in))
	wantN := query.SeqFilter(in, wantDst, predOf)
	wantStarts := query.SeqGroupBy(in, make([]int32, len(in)), nb, keyOf)
	wantAgg := query.SeqAggregate(in, nb, int64(0), lift, keyOf)
	wantTop := make([]int32, 64)
	wantTop = wantTop[:query.SeqTopK(in, wantTop, 64)]
	wantJoin := make([]query.JoinRun[int32], len(in))
	wantJoin = wantJoin[:query.SeqMergeJoin(srt, srt, wantJoin)]

	f := query.NewFilterer[int32](np)
	gr := query.NewGrouper[int32](np, nb)
	ag := query.NewAggregator[int32, int64](np, nb, 0, lift, comb)
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
			if n := f.Filter(ctx, in, dst, predOf); n != wantN {
				report("filter count changed across reuse")
			}
			if starts := gr.GroupBy(ctx, in, grouped, keyOf); starts[nb] != wantStarts[nb] || starts[0] != wantStarts[0] {
				report("groupby starts changed across reuse")
			}
			totals := ag.Aggregate(ctx, in, keyOf)
			for b := range totals {
				if totals[b] != wantAgg[b] {
					report("aggregate totals changed across reuse")
					break
				}
			}
			if n := tk.TopK(ctx, in, top, 64); n != len(wantTop) {
				report("topk count changed across reuse")
			}
			if n := jn.MergeJoin(ctx, srt, srt, joined); n != len(wantJoin) {
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
	checkSlice(t, "reuse-topk", np, top[:len(wantTop)], wantTop)
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
