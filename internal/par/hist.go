package par

import (
	"slices"

	"repro/internal/core"
)

// Hist is the shared state of a team histogram: one bucket-count row and one
// scatter-cursor row per member plus the merged totals. The per-(member,
// bucket) matrix is kept readable after the collective because mixed-mode
// sorts and GroupBy scatter from exactly that matrix: each member's elements
// land at its own reserved offsets inside each bucket (Cursors). Allocate
// once per task with new(Hist).Init, or Init a recycled task's again.
type Hist struct {
	nb     int
	rows   [][]int
	curs   [][]int
	totals []int
}

// Init readies h for teams of up to np members over nb buckets and returns
// it, reusing the rows that are long enough (a recycled Hist allocates only
// as it grows).
func (h *Hist) Init(np, nb int) *Hist {
	h.nb = nb
	h.rows = matrix(h.rows, np, nb)
	h.curs = matrix(h.curs, np, nb)
	h.totals = slices.Grow(h.totals[:0], nb)[:nb]
	return h
}

func matrix(m [][]int, np, nb int) [][]int {
	m = slices.Grow(m[:0], np)[:np]
	for i := range m {
		m[i] = slices.Grow(m[i][:0], nb)[:nb]
	}
	return m
}

// Histogram is a collective counting bucketOf(i) ∈ [0, nb) for every
// i in [0, n): each member counts its static chunk (Chunk) into its private
// row, and after the team barrier the buckets are merged team-parallel
// (Merge). When it returns, every member may read Totals and Row. A team of
// size 1 runs the sequential oracle.
//
// Callers that scatter from the count matrix must walk the same member
// chunks: element i was counted by the member whose Chunk(lid, w, n) range
// contains i.
func (h *Hist) Histogram(ctx *core.Ctx, n int, bucketOf func(i int) int) {
	h.histogram(ctx, n, bucketOf)
	ctx.Barrier()
}

func (h *Hist) histogram(ctx *core.Ctx, n int, bucketOf func(i int) int) {
	w, lid := ctx.TeamSize(), ctx.LocalID()
	if w == 1 {
		seqHistogramInto(h.rows[0], n, bucketOf)
		copy(h.totals, h.rows[0])
		return
	}
	checkTeam(w, len(h.rows))

	// Phase 1: count this member's chunk into its private row.
	row := h.rows[lid]
	clear(row)
	lo, hi := Chunk(lid, w, n)
	for i := lo; i < hi; i++ {
		row[bucketOf(i)]++
	}
	h.merge(ctx)
}

// Merge is the collective half of Histogram, for a caller that has counted
// its static chunk into its cleared Row(ctx.LocalID()) itself (internal/query's
// GroupBy, by element not index): across the team barrier member m sums the
// m-th static chunk of the bucket range over all rows into Totals.
func (h *Hist) Merge(ctx *core.Ctx) {
	h.merge(ctx)
	ctx.Barrier()
}

func (h *Hist) merge(ctx *core.Ctx) {
	w, lid := ctx.TeamSize(), ctx.LocalID()
	checkTeam(w, len(h.rows))
	ctx.Barrier()
	blo, bhi := Chunk(lid, w, h.nb)
	for b := blo; b < bhi; b++ {
		t := 0
		for m := 0; m < w; m++ {
			t += h.rows[m][b]
		}
		h.totals[b] = t
	}
}

// Totals returns the merged per-bucket counts of the last Histogram call.
// Valid on every member after the collective returns; do not mutate.
func (h *Hist) Totals() []int { return h.totals }

// Row returns member m's private bucket counts: readable by every member
// after the collective returns, written only by m itself ahead of Merge.
func (h *Hist) Row(m int) []int { return h.rows[m] }

// Cursors returns member lid's private scatter cursors for a conflict-free
// stable scatter from the last Histogram or Merge: cur[b] = the start of
// bucket b (the sum of Totals[:b]) plus everything members 0 … lid−1 counted
// into b, so when every member writes its own chunk's elements at its own
// cursors (advancing cur[b] per element), the buckets come out contiguous,
// member-ordered, and write-conflict-free. Member 0's cursors are the bucket
// starts. Each member sums its prefix itself from what the collective left
// readable, so no barrier is needed; the returned row is lid's alone, for the
// scatter to advance, and its next Cursors call overwrites it. The scatter
// must walk the same member chunks the histogram counted (Chunk).
func (h *Hist) Cursors(lid int) []int {
	cur := h.curs[lid]
	off := 0
	for b, t := range h.totals {
		cur[b] = off
		off += t
	}
	for m := 0; m < lid; m++ {
		for b, c := range h.rows[m] {
			cur[b] += c
		}
	}
	return cur
}

// SeqHistogram is the sequential oracle: the bucket counts of
// bucketOf(0) … bucketOf(n−1) over nb buckets.
func SeqHistogram(n, nb int, bucketOf func(i int) int) []int {
	counts := make([]int, nb)
	seqHistogramInto(counts, n, bucketOf)
	return counts
}

func seqHistogramInto(counts []int, n int, bucketOf func(i int) int) {
	clear(counts)
	for i := 0; i < n; i++ {
		counts[bucketOf(i)]++
	}
}

// Histogram returns a team task of np members counting bucketOf(i) ∈
// [0, nb) for i in [0, n) into out (len ≥ nb).
func Histogram(np, n, nb int, bucketOf func(i int) int, out []int) core.Task {
	h := new(Hist).Init(np, nb)
	return core.Func(np, func(ctx *core.Ctx) {
		h.Histogram(ctx, n, bucketOf)
		if ctx.LocalID() == 0 {
			copy(out, h.totals)
		}
	})
}
