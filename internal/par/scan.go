package par

import "repro/internal/core"

// Scanner is the shared state of a team prefix scan: the identity and
// combine of the underlying monoid plus one padded slot per member for the
// block sums. Allocate once per task with NewScanner and share via the
// task closure.
type Scanner[A any] struct {
	id   A
	comb func(A, A) A
	sums []slot[A]
}

// NewScanner returns scan state for teams of up to np members over the
// monoid (identity, comb). comb must be associative.
func NewScanner[A any](np int, identity A, comb func(A, A) A) *Scanner[A] {
	return &Scanner[A]{id: identity, comb: comb, sums: make([]slot[A], np)}
}

// Exclusive is a collective replacing data[i] with comb(data[0] … data[i−1])
// (identity for i = 0) in place and returning the total to every member.
// It is the two-phase block scan: each member folds its static chunk (Chunk)
// into a block sum, the block sums are scanned exclusively across the team
// barrier, and a fixup pass rewrites each chunk seeded with its member's
// offset. A team of size 1 runs the sequential oracle.
func (s *Scanner[A]) Exclusive(ctx *core.Ctx, data []A) A {
	total := s.scan(ctx, data, true)
	ctx.Barrier()
	return total
}

func (s *Scanner[A]) scan(ctx *core.Ctx, data []A, exclusive bool) A {
	w, lid := ctx.TeamSize(), ctx.LocalID()
	if w == 1 {
		if exclusive {
			return SeqScanExclusive(s.id, s.comb, data)
		}
		return SeqScanInclusive(s.id, s.comb, data)
	}
	checkTeam(w, len(s.sums))
	lo, hi := Chunk(lid, w, len(data))

	// Phase 1: local fold of this member's block.
	sum := s.id
	for i := lo; i < hi; i++ {
		sum = s.comb(sum, data[i])
	}
	s.sums[lid].v = sum
	ctx.Barrier()

	// Phase 2: every member computes its own exclusive prefix of the block
	// sums (and continues to the total) — O(w) work repeated per member is
	// cheaper than communicating it.
	off := s.id
	for m := 0; m < lid; m++ {
		off = s.comb(off, s.sums[m].v)
	}
	total := off
	for m := lid; m < w; m++ {
		total = s.comb(total, s.sums[m].v)
	}

	// Phase 3: fixup — rewrite the block seeded with the member's offset.
	run := off
	if exclusive {
		for i := lo; i < hi; i++ {
			v := data[i]
			data[i] = run
			run = s.comb(run, v)
		}
	} else {
		for i := lo; i < hi; i++ {
			run = s.comb(run, data[i])
			data[i] = run
		}
	}
	return total
}

// SeqScanInclusive is the sequential oracle of ScanInclusive: an in-place
// running fold; returns the total.
func SeqScanInclusive[A any](identity A, comb func(A, A) A, data []A) A {
	run := identity
	for i := range data {
		run = comb(run, data[i])
		data[i] = run
	}
	return run
}

// SeqScanExclusive is the sequential oracle of Exclusive.
func SeqScanExclusive[A any](identity A, comb func(A, A) A, data []A) A {
	run := identity
	for i := range data {
		v := data[i]
		data[i] = run
		run = comb(run, v)
	}
	return run
}

// ScanInclusive returns a team task of np members computing the in-place
// inclusive prefix scan of data under (identity, comb). The total is
// stored into *outTotal when non-nil.
func ScanInclusive[A any](np int, data []A, identity A, comb func(A, A) A, outTotal *A) core.Task {
	return scanTask(np, data, identity, comb, outTotal, false)
}

// ScanExclusive returns a team task of np members computing the in-place
// exclusive prefix scan of data under (identity, comb). The total is
// stored into *outTotal when non-nil.
func ScanExclusive[A any](np int, data []A, identity A, comb func(A, A) A, outTotal *A) core.Task {
	return scanTask(np, data, identity, comb, outTotal, true)
}

func scanTask[A any](np int, data []A, identity A, comb func(A, A) A, outTotal *A, exclusive bool) core.Task {
	s := NewScanner(np, identity, comb)
	return core.Func(np, func(ctx *core.Ctx) {
		total := s.scan(ctx, data, exclusive)
		ctx.Barrier()
		if ctx.LocalID() == 0 && outTotal != nil {
			*outTotal = total
		}
	})
}
