package query

import (
	"sort"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/qsort"
	"repro/internal/ssort"
)

// JoinRun is one matched key run of a merge join: the key and the index
// ranges a[ALo:AHi] and b[BLo:BHi] holding it on each side. The join's
// output pairs are the cross product of the two ranges; emitting runs
// instead of pairs keeps the output linear in the input even when both
// sides are constant (where materialized pairs would be quadratic).
type JoinRun[T Ordered] struct {
	Key      T
	ALo, AHi int
	BLo, BHi int
}

// Pairs returns the number of output pairs the run stands for.
func (r JoinRun[T]) Pairs() int { return (r.AHi - r.ALo) * (r.BHi - r.BLo) }

// SeqMergeJoin is the sequential oracle of MergeJoin: the classic run-walk
// over two ascending-sorted slices, writing one JoinRun per key present in
// both into out (ascending by key) and returning the run count. out needs
// room for every matched run; min(len(a), len(b)) always suffices.
func SeqMergeJoin[T Ordered](a, b []T, out []JoinRun[T]) int {
	n := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case b[j] < a[i]:
			j++
		default:
			k := a[i]
			ihi := i + 1
			for ihi < len(a) && a[ihi] == k {
				ihi++
			}
			jhi := j + 1
			for jhi < len(b) && b[jhi] == k {
				jhi++
			}
			out[n] = JoinRun[T]{Key: k, ALo: i, AHi: ihi, BLo: j, BHi: jhi}
			n++
			i, j = ihi, jhi
		}
	}
	return n
}

// Joiner is the shared state of a team merge join, a compaction's
// per-member run counts. Allocate once per task with NewJoiner and share via
// the task closure.
type Joiner[T Ordered] struct {
	p *par.Packer[JoinRun[T]]
}

// NewJoiner returns merge-join state for teams of up to np members.
func NewJoiner[T Ordered](np int) *Joiner[T] {
	return &Joiner[T]{p: par.NewPacker[JoinRun[T]](np)}
}

// MergeJoin is a collective joining two ascending-sorted slices: one
// JoinRun per key present in both sides is written into out, ascending by
// key, and the run count is returned to every member. out must have room
// for every matched run (min(len(a), len(b)) always suffices) and must not
// alias a or b.
//
// Ownership is by key run of a: each member processes the runs *starting*
// in its static chunk (a run crossing the chunk boundary belongs to the
// member where it starts), locates the matching range of b by binary
// search, and — after par.Packer.Offsets has scanned the counts across the
// barrier — writes its runs at its exclusive prefix offset. That is the Pack
// pattern lifted from elements to key runs: count, scan, conflict-free
// scatter, stable by construction. A team of size 1 runs the sequential
// oracle.
func (jn *Joiner[T]) MergeJoin(ctx *core.Ctx, a, b []T, out []JoinRun[T]) int {
	n := jn.mergeJoin(ctx, a, b, out)
	ctx.Barrier()
	return n
}

func (jn *Joiner[T]) mergeJoin(ctx *core.Ctx, a, b []T, out []JoinRun[T]) int {
	w, lid := ctx.TeamSize(), ctx.LocalID()
	if w == 1 {
		return SeqMergeJoin(a, b, out)
	}
	// Pass 1 counts this member's matched runs; pass 2 rewalks the same runs,
	// writing at the exclusive prefix offset.
	off, total := jn.p.Offsets(ctx, jn.runs(lid, w, a, b, nil))
	jn.runs(lid, w, a, b, out[off:])
	return total
}

// runs walks the key runs of a starting in member lid's chunk, matching
// each against b; with out == nil it only counts, otherwise it writes the
// matched runs into out. Returns the matched run count.
func (jn *Joiner[T]) runs(lid, w int, a, b []T, out []JoinRun[T]) int {
	lo, hi := par.Chunk(lid, w, len(a))
	// Skip a run continuing from the previous chunk; its owner handles it.
	i := lo
	if i > 0 {
		for i < hi && a[i] == a[i-1] {
			i++
		}
	}
	if i >= hi {
		return 0
	}
	// b's merge frontier: runs of a ascend, so it only moves forward.
	j := sort.Search(len(b), func(x int) bool { return !(b[x] < a[i]) })
	n := 0
	for i < hi {
		k := a[i]
		ihi := i + 1
		for ihi < len(a) && a[ihi] == k {
			ihi++
		}
		for j < len(b) && b[j] < k {
			j++
		}
		if j < len(b) && !(k < b[j]) {
			jhi := j + 1
			for jhi < len(b) && b[jhi] == k {
				jhi++
			}
			if out != nil {
				out[n] = JoinRun[T]{Key: k, ALo: i, AHi: ihi, BLo: j, BHi: jhi}
			}
			n++
			j = jhi
		}
		i = ihi
	}
	return n
}

// SortJoin sorts a and b in place with the mixed-mode samplesort (both
// sorts run concurrently in g, their tasks and scratch drawn from fp; nil: a
// pool per sort), then merge-joins them into out as op, with a team of up to
// op's width, returning the matched run count. It is the staged composition
// the Plan layer generalizes: sort roots fan out task-parallel, the group's
// quiescence is the stage boundary, and the join runs as one team task. A refused spawn or a group that ends canceled or
// shut down is reported as the error, with the count meaningless (a refused
// second sort leaves the first in flight until the caller's next Wait).
func SortJoin[T Ordered](g *core.Group, op *Op[T], fp *qsort.ForkPool[T], a, b []T, out []JoinRun[T], opt ssort.Options) (int, error) {
	for _, side := range [][]T{a, b} {
		if err := g.Spawn(ssort.Root(fp, op.maxTeam, side, opt)); err != nil {
			return 0, err
		}
	}
	if err := g.WaitErr(); err != nil {
		return 0, err
	}
	np := core.BestNp(len(a)+len(b), DefaultMinPerThread, op.maxTeam)
	if err := g.Run(op.MergeJoin(np, a, b, out)); err != nil {
		return 0, err
	}
	return op.N(), nil
}
