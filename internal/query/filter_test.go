package query_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/query"
)

// Filter's scatter stores every element at the write cursor and lets the
// next one overwrite a rejected one, so what it must be held to is where it
// stops: one slot past a member's count is the next member's range (a race)
// or past the survivors (a panic on an exact-fit dst, a clobbered slot on a
// longer one). The matches-oracle tests pass a dst of len(src) and see none
// of that. The inputs here are their own indices, so a predicate on the
// value is a predicate on the position.

var predPatterns = []struct {
	name string
	keep func(np, n, i int) bool
}{
	{"none", func(_, _, _ int) bool { return false }},
	{"all", func(_, _, _ int) bool { return true }},
	{"alternating", func(_, _, i int) bool { return i%2 == 0 }},
	{"first-only", func(_, _, i int) bool { return i == 0 }},
	{"chunk-last-rejected", func(np, n, i int) bool {
		for m := 0; m < np; m++ {
			if _, hi := par.Chunk(m, np, n); i == hi-1 {
				return false
			}
		}
		return true
	}},
}

const sentinel = -1 // never an element

func indices(n int) []int32 {
	src := make([]int32, n)
	for i := range src {
		src[i] = int32(i)
	}
	return src
}

// filterInto filters src into a sentinel-filled dst of size elements
// through the path np selects — 0 the oracle called directly, 1 a team of
// one, more a wider team — and checks that nothing from dst[n:] on was
// written.
func filterInto(t *testing.T, s *core.Scheduler, np int, src []int32, size int, pred func(int32) bool) []int32 {
	t.Helper()
	dst := make([]int32, size)
	for i := range dst {
		dst[i] = sentinel
	}
	var n int
	if np == 0 {
		n = query.SeqFilter(src, dst, pred)
	} else {
		op := query.NewOp[int32](s.MaxTeam())
		s.Run(op.Filter(np, src, dst, pred))
		n = op.N()
	}
	for i := n; i < size; i++ {
		if dst[i] != sentinel {
			t.Fatalf("np=%d: dst[%d] = %d written beyond the %d survivors", np, i, dst[i], n)
		}
	}
	return dst[:n]
}

func TestFilterWritesOnlySurvivors(t *testing.T) {
	s := propSched(t)
	for _, n := range []int{0, 1, 2, propN} {
		src := indices(n)
		for _, np := range append([]int{0}, teamSizes(s)...) {
			for _, pp := range predPatterns {
				pred := func(v int32) bool { return pp.keep(max(np, 1), n, int(v)) }
				var want []int32
				for _, v := range src {
					if pred(v) {
						want = append(want, v)
					}
				}
				for _, pad := range []int{0, 3} { // exact fit; a tail that must survive
					got := filterInto(t, s, np, src, len(want)+pad, pred)
					checkSlice(t, pp.name, np, got, want)
				}
			}
		}
	}
}

// TestFilterImpurePredicate answers differently the second time an element
// is asked about, with more and with fewer survivors than the count saw.
// The contract makes no promise about the elements then, but the damage
// stays inside dst[:n]: the count is the first pass's, nothing panics and
// nothing beyond it is written.
func TestFilterImpurePredicate(t *testing.T) {
	s := propSched(t)
	src := indices(propN)
	for _, second := range []bool{true, false} {
		for _, np := range teamSizes(s) {
			asked := make([]atomic.Int32, len(src))
			pred := func(v int32) bool {
				if asked[v].Add(1) == 1 {
					return v%2 == 0
				}
				return second
			}
			wantN := (len(src) + 1) / 2
			if got := filterInto(t, s, np, src, wantN+3, pred); len(got) != wantN {
				t.Fatalf("np=%d second=%v: count = %d, want the first pass's %d", np, second, len(got), wantN)
			}
		}
	}
}
