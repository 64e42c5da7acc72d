package query

import (
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/qsort"
)

// TopKer is the shared state of a team top-k selection: one bounded
// candidate heap per member plus member 0's merge scratch and the published
// result count. Allocate once per task with NewTopKer and share via the
// task closure.
type TopKer[T Ordered] struct {
	k      int
	heaps  [][]T // per-member min-heaps of the k largest seen, cap k
	merged []T   // member 0's merge scratch, cap np·k
	n      int   // result count, written by member 0, read by all after the barrier
}

// NewTopKer returns top-k state for teams of up to np members selecting up
// to k elements.
func NewTopKer[T Ordered](np, k int) *TopKer[T] {
	heaps := make([][]T, np)
	for m := range heaps {
		heaps[m] = make([]T, 0, k)
	}
	return &TopKer[T]{k: k, heaps: heaps, merged: make([]T, 0, np*k)}
}

// TopK is a collective selecting the k largest elements of src into dst in
// descending order, returning the selected count min(k, len(src)) to every
// member. k must not exceed the k the state was built for; dst must have
// room for the count and must not alias src. Each member scans its static
// chunk against the minimum of a bounded min-heap and offers the heap what
// exceeds it (the selection), member 0 merges the ≤ w·k candidates with the
// sequential sort, and the count is published across the final barrier.
// Ties are resolved by value only (elements are indistinguishable beyond
// their ordering), so the result equals the sequential oracle exactly.
func (t *TopKer[T]) TopK(ctx *core.Ctx, src, dst []T, k int) int {
	t.topK(ctx, src, dst, k)
	ctx.Barrier()
	return t.n // member 0's write, readable only past the barrier
}

func (t *TopKer[T]) topK(ctx *core.Ctx, src, dst []T, k int) {
	w, lid := ctx.TeamSize(), ctx.LocalID()
	if k > t.k {
		panic("query: TopK k exceeds the k the state was built for")
	}
	checkTeam(w, len(t.heaps))
	if w == 1 {
		t.n = seqTopKHeap(src, dst, k, t.heaps[0])
		return
	}

	// Phase 1: bounded-heap selection over this member's chunk. A full heap
	// takes only what exceeds its minimum — almost nothing, unless the input
	// ascends — so test here and call heapOffer for a candidate only.
	lo, hi := par.Chunk(lid, w, len(src))
	h := t.heaps[lid][:0]
	for _, v := range src[lo:hi] {
		if len(h) < k || (k > 0 && v > h[0]) {
			h = heapOffer(h, k, v)
		}
	}
	t.heaps[lid] = h
	ctx.Barrier()

	// Phase 2: member 0 merges the candidates and publishes the count.
	if lid == 0 {
		m := t.merged[:0]
		for mem := 0; mem < w; mem++ {
			m = append(m, t.heaps[mem]...)
		}
		qsort.Introsort(m)
		n := k
		if n > len(m) {
			n = len(m)
		}
		for i := 0; i < n; i++ {
			dst[i] = m[len(m)-1-i]
		}
		t.n = n
	}
}

// heapOffer pushes v into the bounded min-heap h (cap k) holding the k
// largest elements seen: h[0] is the smallest kept element, evicted when a
// larger candidate arrives.
func heapOffer[T Ordered](h []T, k int, v T) []T {
	if len(h) < k {
		h = append(h, v)
		// Sift up.
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p] <= h[i] {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		return h
	}
	if k == 0 || v <= h[0] {
		return h
	}
	h[0] = v
	// Sift down.
	i := 0
	for {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		if r := l + 1; r < len(h) && h[r] < h[l] {
			l = r
		}
		if h[i] <= h[l] {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	return h
}

// seqTopKHeap is the shared heap-based selection used by both the oracle
// and the single-member collective path; scratch (cap ≥ k) avoids the
// oracle's allocation when the caller already holds a buffer.
func seqTopKHeap[T Ordered](src, dst []T, k int, scratch []T) int {
	h := scratch[:0]
	for _, v := range src {
		h = heapOffer(h, k, v)
	}
	qsort.Introsort(h)
	for i := 0; i < len(h); i++ {
		dst[i] = h[len(h)-1-i]
	}
	return len(h)
}

// SeqTopK is the sequential oracle of TopK: the k largest elements of src,
// descending, written to dst; returns min(k, len(src)).
func SeqTopK[T Ordered](src, dst []T, k int) int {
	return seqTopKHeap(src, dst, k, make([]T, 0, k))
}
