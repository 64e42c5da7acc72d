package par_test

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/par"
)

// The property suite checks every primitive against its sequential oracle
// across all registered input distributions and team sizes {1, 2, 3, 7, P}
// (1 = oracle path, powers of two = full teams, 3 and 7 = Refinement 2's
// rounded-up teams with surplus members).

const propN = 10_007 // odd, so chunk boundaries never align with anything

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

func TestReduceMatchesOracle(t *testing.T) {
	s := propSched(t)
	forEachInput(t, func(t *testing.T, _ dist.Kind, in []int32) {
		add := func(a, b int64) int64 { return a + b }
		at := func(i int) int64 { return int64(in[i]) }
		want := par.SeqReduce(len(in), 0, at, add)
		for _, np := range teamSizes(s) {
			var got int64
			s.Run(par.Reduce(np, len(in), 0, at, add, &got))
			if got != want {
				t.Fatalf("np=%d: reduce = %d, want %d", np, got, want)
			}
		}
	})
}

func TestScanMatchesOracle(t *testing.T) {
	s := propSched(t)
	add := func(a, b int32) int32 { return a + b } // wraps identically in oracle and team
	forEachInput(t, func(t *testing.T, _ dist.Kind, in []int32) {
		wantIncl := append([]int32(nil), in...)
		wantTotIncl := par.SeqScanInclusive(0, add, wantIncl)
		wantExcl := append([]int32(nil), in...)
		wantTotExcl := par.SeqScanExclusive(0, add, wantExcl)
		for _, np := range teamSizes(s) {
			gotI := append([]int32(nil), in...)
			var totI int32
			s.Run(par.ScanInclusive(np, gotI, 0, add, &totI))
			checkSlice(t, "inclusive", np, gotI, wantIncl)
			if totI != wantTotIncl {
				t.Fatalf("np=%d: inclusive total = %d, want %d", np, totI, wantTotIncl)
			}
			gotE := append([]int32(nil), in...)
			var totE int32
			s.Run(par.ScanExclusive(np, gotE, 0, add, &totE))
			checkSlice(t, "exclusive", np, gotE, wantExcl)
			if totE != wantTotExcl {
				t.Fatalf("np=%d: exclusive total = %d, want %d", np, totE, wantTotExcl)
			}
		}
	})
}

func TestPackMatchesOracle(t *testing.T) {
	s := propSched(t)
	keep := func(_ int, v int32) bool { return v%3 == 0 }
	forEachInput(t, func(t *testing.T, _ dist.Kind, in []int32) {
		wantDst := make([]int32, len(in))
		wantN := par.SeqPack(in, wantDst, keep)
		for _, np := range teamSizes(s) {
			dst := make([]int32, len(in))
			var n int
			s.Run(par.Pack(np, in, dst, keep, &n))
			if n != wantN {
				t.Fatalf("np=%d: pack count = %d, want %d", np, n, wantN)
			}
			checkSlice(t, "pack", np, dst[:n], wantDst[:wantN])
		}
	})
}

func TestHistogramMatchesOracle(t *testing.T) {
	s := propSched(t)
	const nb = 37
	forEachInput(t, func(t *testing.T, _ dist.Kind, in []int32) {
		bucketOf := func(i int) int { return int(uint32(in[i]) % nb) }
		want := par.SeqHistogram(len(in), nb, bucketOf)
		for _, np := range teamSizes(s) {
			got := make([]int, nb)
			s.Run(par.Histogram(np, len(in), nb, bucketOf, got))
			checkSlice(t, "histogram", np, got, want)
		}
	})
}

// TestHistCursors checks Hist.Cursors directly, at every team width: member
// 0's cursors are the bucket starts (the exclusive scan of Totals), and each
// member's range in a bucket (its cursor plus its own count) ends where the
// next member's begins, the last member's where the next bucket starts. Each
// member reads its cursors right after the collective, with no barrier of
// its own. Two bucket functions, each histogram taken twice in one task.
func TestHistCursors(t *testing.T) {
	s := propSched(t)
	const nb = 37
	in := dist.Generate(dist.Random, propN, 11)
	n := len(in)
	buckets := []func(i int) int{
		func(i int) int { return int(uint32(in[i]) % nb) }, // every member fills every bucket
		func(i int) int { return i * nb / n },              // by index: most of a member's row is 0
	}
	wantTot := make([][]int, len(buckets))
	for f, bucketOf := range buckets {
		wantTot[f] = par.SeqHistogram(n, nb, bucketOf)
	}
	for _, np := range teamSizes(s) {
		h := new(par.Hist).Init(np, nb)
		curs := make([][]int, np)
		for m := range curs {
			curs[m] = make([]int, nb)
		}
		s.Run(core.Func(np, func(ctx *core.Ctx) {
			w, lid := ctx.TeamSize(), ctx.LocalID()
			for round := range 2 {
				for f, bucketOf := range buckets {
					h.Histogram(ctx, n, bucketOf)
					copy(curs[lid], h.Cursors(lid))
					ctx.Barrier()
					if lid == 0 && !cursorsPartition(t, h, curs[:w], wantTot[f]) {
						t.Errorf("np=%d: round %d, bucket function %d", np, round, f)
					}
					ctx.Barrier() // the next Histogram rewrites the rows member 0 reads
				}
			}
		}))
	}
}

// cursorsPartition reports, and logs the first violation, whether the
// members' cursors split every bucket of h into consecutive member ranges.
func cursorsPartition(t *testing.T, h *par.Hist, curs [][]int, wantTot []int) bool {
	totals := h.Totals()
	if !slices.Equal(totals, wantTot) {
		t.Logf("totals %v, want %v", totals, wantTot)
		return false
	}
	starts := slices.Clone(totals)
	par.SeqScanExclusive(0, func(a, b int) int { return a + b }, starts)
	if !slices.Equal(curs[0], starts) {
		t.Logf("member 0's cursors %v, want the bucket starts %v", curs[0], starts)
		return false
	}
	for m, cur := range curs {
		for b, c := range cur {
			end, next := c+h.Row(m)[b], starts[b]+totals[b]
			if m+1 < len(curs) {
				next = curs[m+1][b]
			}
			if end != next {
				t.Logf("bucket %d: member %d's range ends at %d, the next begins at %d", b, m, end, next)
				return false
			}
		}
	}
	return true
}

// extrema is a min/max monoid for Reduce: a struct accumulator whose
// identity, the zero value, means "no element yet", so no ±∞ sentinel is
// needed.
type extrema[T cmp.Ordered] struct {
	min, max T
	ok       bool
}

func combineExtrema[T cmp.Ordered](a, b extrema[T]) extrema[T] {
	switch {
	case !a.ok:
		return b
	case !b.ok:
		return a
	}
	return extrema[T]{min(a.min, b.min), max(a.max, b.max), true}
}

// extremaOf folds s through the monoid; wantExtrema is the oracle.
func extremaOf[T cmp.Ordered](s []T) extrema[T] {
	at := func(i int) extrema[T] { return extrema[T]{s[i], s[i], true} }
	return par.SeqReduce(len(s), extrema[T]{}, at, combineExtrema[T])
}

func wantExtrema[T cmp.Ordered](s []T) extrema[T] {
	if len(s) == 0 {
		return extrema[T]{}
	}
	return extrema[T]{slices.Min(s), slices.Max(s), true}
}

func TestMinMaxMatchesOracle(t *testing.T) {
	s := propSched(t)
	forEachInput(t, func(t *testing.T, _ dist.Kind, in []int32) {
		at := func(i int) extrema[int32] { return extrema[int32]{in[i], in[i], true} }
		want := wantExtrema(in)
		for _, np := range teamSizes(s) {
			var got extrema[int32]
			s.Run(par.Reduce(np, len(in), extrema[int32]{}, at, combineExtrema[int32], &got))
			if got != want {
				t.Fatalf("np=%d: minmax = %+v, want %+v", np, got, want)
			}
		}
	})
}

// TestMapMatchesOracle runs an elementwise kernel, dst[i] = f(i), under the
// dynamic schedule at every team size.
func TestMapMatchesOracle(t *testing.T) {
	s := propSched(t)
	forEachInput(t, func(t *testing.T, _ dist.Kind, in []int32) {
		f := func(i int) int64 { return 3*int64(in[i]) + int64(i) }
		want := make([]int64, len(in))
		for i := range want {
			want[i] = f(i)
		}
		for _, np := range teamSizes(s) {
			got := make([]int64, len(in))
			s.Run(core.ForDynamic(np, len(got), 0, func(_ *core.Ctx, lo, hi int) {
				for i := lo; i < hi; i++ {
					got[i] = f(i)
				}
			}))
			checkSlice(t, "map", np, got, want)
		}
	})
}

// TestEmptyAndTinyInputs pins the edge cases where chunks are empty: more
// team members than elements, and zero elements.
func TestEmptyAndTinyInputs(t *testing.T) {
	s := propSched(t)
	add := func(a, b int64) int64 { return a + b }
	for _, n := range []int{0, 1, 2, 5} {
		in := make([]int64, n)
		for i := range in {
			in[i] = int64(i + 1)
		}
		for _, np := range teamSizes(s) {
			var sum int64
			s.Run(par.Reduce(np, n, 0, func(i int) int64 { return in[i] }, add, &sum))
			want := par.SeqReduce(n, 0, func(i int) int64 { return in[i] }, add)
			if sum != want {
				t.Fatalf("n=%d np=%d: reduce = %d, want %d", n, np, sum, want)
			}
			scan := append([]int64(nil), in...)
			s.Run(par.ScanExclusive(np, scan, 0, add, nil))
			wantScan := append([]int64(nil), in...)
			par.SeqScanExclusive(0, add, wantScan)
			checkSlice(t, "tiny-scan", np, scan, wantScan)
			r := par.NewReducer(np, combineExtrema[int64])
			var mm extrema[int64]
			s.Run(core.Func(np, func(ctx *core.Ctx) {
				lo, hi := par.Chunk(ctx.LocalID(), ctx.TeamSize(), n)
				if e := r.Reduce(ctx, extremaOf(in[lo:hi])); ctx.LocalID() == 0 {
					mm = e
				}
			}))
			if want := wantExtrema(in); mm != want {
				t.Fatalf("n=%d np=%d: minmax = %+v, want %+v", n, np, mm, want)
			}
		}
	}
}

// TestPackStability checks that Pack preserves the relative order of kept
// elements (the property samplesort's scatter relies on).
func TestPackStability(t *testing.T) {
	s := propSched(t)
	type pair struct{ key, seq int32 }
	n := 5000
	src := make([]pair, n)
	rng := dist.Generate(dist.RandDup, n, 3)
	for i := range src {
		src[i] = pair{key: rng[i], seq: int32(i)}
	}
	keep := func(_ int, v pair) bool { return v.key%2 == 0 }
	for _, np := range teamSizes(s) {
		dst := make([]pair, n)
		var cnt int
		s.Run(par.Pack(np, src, dst, keep, &cnt))
		for i := 1; i < cnt; i++ {
			if dst[i].seq <= dst[i-1].seq {
				t.Fatalf("np=%d: pack not stable at %d: seq %d after %d",
					np, i, dst[i].seq, dst[i-1].seq)
			}
		}
	}
}

// TestClaimer checks that the two-ended claimer hands out every block
// exactly once, as a prefix from the left and a suffix from the right.
func TestClaimer(t *testing.T) {
	s := propSched(t)
	const nb = 1000
	c := par.NewClaimer(nb)
	seen := make([]int32, nb) // written once each; verified after Run
	np := s.MaxTeam()
	s.Run(core.Func(np, func(ctx *core.Ctx) {
		for {
			l, okL := c.Left()
			if okL {
				seen[l]++
			}
			r, okR := c.Right()
			if okR {
				seen[r]++
			}
			if !okL && !okR {
				return
			}
		}
	}))
	for b, n := range seen {
		if n != 1 {
			t.Fatalf("block %d claimed %d times", b, n)
		}
	}
	la, ra := c.TakenLeft(), c.TakenRight()
	if la+ra != nb {
		t.Fatalf("taken left %d + right %d != %d", la, ra, nb)
	}
}

// TestCollectiveReuse drives one team task through many rounds in which
// every collective runs twice back to back on the same state, with nothing
// in between — the reuse pattern internal/ssort and internal/query depend
// on. A collective that returned before its trailing barrier would let a
// fast member's second call overwrite state a slow member still reads in
// the first, which the race detector reports.
func TestCollectiveReuse(t *testing.T) {
	s := propSched(t)
	np := s.MaxTeam()
	in := dist.Generate(dist.Random, 4096, 9)
	n := len(in)
	const nb = 37
	add := func(a, b int64) int64 { return a + b }
	keep := func(_ int, v int32) bool { return v%3 == 0 }
	bucketOf := func(i int) int { return int(uint32(in[i]) % nb) }

	wantSum := par.SeqReduce(n, 0, func(i int) int64 { return int64(in[i]) }, add)
	wantPack := make([]int32, n)
	wantPack = wantPack[:par.SeqPack(in, wantPack, keep)]
	wantHist := par.SeqHistogram(n, nb, bucketOf)
	wantMM := wantExtrema(in)
	wide := make([]int64, n) // the scans' input
	for i, v := range in {
		wide[i] = int64(v)
	}
	wantIncl := append([]int64(nil), wide...)
	par.SeqScanInclusive(0, add, wantIncl)
	par.SeqScanInclusive(0, add, wantIncl)

	r := par.NewReducer(np, add)
	p := par.NewPacker[int32](np)
	h := new(par.Hist).Init(np, nb)
	mm := par.NewReducer(np, combineExtrema[int32])
	packed := make([]int32, n)
	incl := make([]int64, n)
	inclTask := par.ScanInclusive(np, incl, 0, add, nil)

	const rounds = 20
	fail := make(chan string, 1)
	s.Run(core.Func(np, func(ctx *core.Ctx) {
		report := func(msg string) {
			select {
			case fail <- msg:
			default:
			}
		}
		lid := ctx.LocalID()
		lo, hi := par.Chunk(lid, ctx.TeamSize(), n)
		for round := 0; round < rounds; round++ {
			partial := int64(round)
			for _, v := range in[lo:hi] {
				partial += int64(v)
			}
			want := wantSum + int64(round)*int64(np)
			if a, b := r.Reduce(ctx, partial), r.Reduce(ctx, partial); a != want || b != want {
				report("reduce total changed across reuse")
			}

			if a, b := p.Pack(ctx, in, packed, keep), p.Pack(ctx, in, packed, keep); a != len(wantPack) || b != len(wantPack) {
				report("pack count changed across reuse")
			}

			h.Histogram(ctx, n, bucketOf)
			h.Histogram(ctx, n, bucketOf)
			for range 2 { // Merge after the caller's own count of its chunk
				row := h.Row(lid)
				clear(row)
				for i := lo; i < hi; i++ {
					row[bucketOf(i)]++
				}
				h.Merge(ctx)
			}
			for b, c := range h.Totals() {
				if c != wantHist[b] {
					report("histogram totals changed across reuse")
					break
				}
			}

			copy(incl[lo:hi], wide[lo:hi]) // the chunk this member scans
			inclTask.Run(ctx)
			inclTask.Run(ctx)

			part := extremaOf(in[lo:hi])
			if a, b := mm.Reduce(ctx, part), mm.Reduce(ctx, part); a != wantMM || b != wantMM {
				report("minmax changed across reuse")
			}
		}
	}))
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	checkSlice(t, "reuse-pack", np, packed[:len(wantPack)], wantPack)
	checkSlice(t, "reuse-inclusive", np, incl, wantIncl)
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
