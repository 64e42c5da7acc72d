package par

import "repro/internal/core"

// scan is the two-phase block scan of a team, in place, returning the
// total to every member: each member folds its static chunk (Chunk) into a
// block sum, the block sums (one padded slot per member in sums) are
// scanned exclusively across the team barrier, and a fixup pass rewrites
// each chunk seeded with its member's offset. A team of size 1 runs the
// sequential oracle.
func scan[A any](ctx *core.Ctx, data []A, id A, comb func(A, A) A, sums []slot[A], exclusive bool) A {
	w, lid := ctx.TeamSize(), ctx.LocalID()
	if w == 1 {
		if exclusive {
			return SeqScanExclusive(id, comb, data)
		}
		return SeqScanInclusive(id, comb, data)
	}
	checkTeam(w, len(sums))
	lo, hi := Chunk(lid, w, len(data))

	// Phase 1: local fold of this member's block.
	sum := id
	for i := lo; i < hi; i++ {
		sum = comb(sum, data[i])
	}
	sums[lid].v = sum
	ctx.Barrier()

	// Phase 2: every member computes its own exclusive prefix of the block
	// sums (and continues to the total) — O(w) work repeated per member is
	// cheaper than communicating it.
	off := id
	for m := 0; m < lid; m++ {
		off = comb(off, sums[m].v)
	}
	total := off
	for m := lid; m < w; m++ {
		total = comb(total, sums[m].v)
	}

	// Phase 3: fixup — rewrite the block seeded with the member's offset.
	run := off
	if exclusive {
		for i := lo; i < hi; i++ {
			v := data[i]
			data[i] = run
			run = comb(run, v)
		}
	} else {
		for i := lo; i < hi; i++ {
			run = comb(run, data[i])
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

// SeqScanExclusive is the sequential oracle of ScanExclusive.
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
	sums := make([]slot[A], np)
	return core.Func(np, func(ctx *core.Ctx) {
		total := scan(ctx, data, identity, comb, sums, exclusive)
		ctx.Barrier()
		if ctx.LocalID() == 0 && outTotal != nil {
			*outTotal = total
		}
	})
}
