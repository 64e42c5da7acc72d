package par_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/par"
)

// The scatter of Pack stores every element at the write cursor and lets the
// next one overwrite a rejected one, so what it must be held to is where it
// stops: a member that runs one slot past its count writes into the next
// member's range (a race) or past the survivors (a panic on an exact-fit
// dst, a clobbered slot on a longer one). The matches-oracle tests pass a
// dst of len(src) and see none of that.

// keepPatterns are keeps by index i of n elements packed by np members.
var keepPatterns = []struct {
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

const sentinel = -1 // never an element: the inputs below are their own indices

// indices returns [0, 1, …, n−1].
func indices(n int) []int32 {
	src := make([]int32, n)
	for i := range src {
		src[i] = int32(i)
	}
	return src
}

// packInto packs src into a sentinel-filled dst of size elements through the
// path np selects — 0 the oracle called directly, 1 a team of one, more a
// wider team — and checks that nothing from dst[n:] on was written.
func packInto(t *testing.T, s *core.Scheduler, np int, src []int32, size int, keep func(int, int32) bool) []int32 {
	t.Helper()
	dst := make([]int32, size)
	for i := range dst {
		dst[i] = sentinel
	}
	var n int
	if np == 0 {
		n = par.SeqPack(src, dst, keep)
	} else {
		s.Run(par.Pack(np, src, dst, keep, &n))
	}
	for i := n; i < size; i++ {
		if dst[i] != sentinel {
			t.Fatalf("np=%d: dst[%d] = %d written beyond the %d survivors", np, i, dst[i], n)
		}
	}
	return dst[:n]
}

func TestPackWritesOnlySurvivors(t *testing.T) {
	s := propSched(t)
	for _, n := range []int{0, 1, 2, propN} {
		src := indices(n)
		for _, np := range append([]int{0}, teamSizes(s)...) {
			for _, kp := range keepPatterns {
				keep := func(i int, v int32) bool {
					if int(v) != i {
						t.Errorf("np=%d: keep(%d, %d) handed another element's index", np, i, v)
					}
					return kp.keep(max(np, 1), n, i)
				}
				var want []int32
				for i := range src {
					if kp.keep(max(np, 1), n, i) {
						want = append(want, int32(i))
					}
				}
				for _, pad := range []int{0, 3} { // exact fit; a tail that must survive
					got := packInto(t, s, np, src, len(want)+pad, keep)
					checkSlice(t, kp.name, np, got, want)
				}
			}
		}
	}
}

// TestPackImpureKeep answers differently the second time an index is asked
// about, with more and with fewer keeps than the count saw. The contract
// makes no promise about the elements then, but the damage stays inside
// dst[:n]: the count is the first pass's, nothing panics and nothing beyond
// it is written.
func TestPackImpureKeep(t *testing.T) {
	s := propSched(t)
	src := indices(propN)
	for _, second := range []bool{true, false} {
		for _, np := range teamSizes(s) {
			asked := make([]atomic.Int32, len(src))
			keep := func(i int, _ int32) bool {
				if asked[i].Add(1) == 1 {
					return i%2 == 0
				}
				return second
			}
			wantN := (len(src) + 1) / 2
			if got := packInto(t, s, np, src, wantN+3, keep); len(got) != wantN {
				t.Fatalf("np=%d second=%v: count = %d, want the first pass's %d", np, second, len(got), wantN)
			}
		}
	}
}
