// Package par provides reusable team-parallel primitives on top of the
// team-building scheduler: Reduce, ScanInclusive/ScanExclusive, Pack and
// Histogram, plus the two-ended block Claimer of the paper's partitioning
// step.
//
// The paper (Wimmer & Träff, SPAA 2011) argues that deterministically built
// worker teams let data-parallel kernels run inside task-parallel
// computations: a task declares a thread requirement np > 1 and its Run is
// entered simultaneously by np consecutively numbered workers that may
// synchronize through ctx.Barrier(). This package turns that execution model
// into a library, mapping each primitive onto the paper's mixed-mode model
// as one or more barrier-separated phases executed by the whole team:
//
//   - Reduce: each member folds a private partial over its static chunk,
//     then the partials are tree-combined across the team barrier — the
//     all-reduce pattern of the paper's §4 synchronization discussion.
//   - ScanInclusive/ScanExclusive: the two-phase block scan — a local fold
//     per member chunk, an exclusive scan of the per-member block sums at
//     the barrier, and a fixup pass rewriting each chunk with its offset.
//   - Pack: stable filter/compaction as flag-count, exclusive scan of the
//     counts, and an order-preserving scatter — the building block that
//     makes partition-like kernels compositional instead of hand-rolled.
//     Neither loop jumps on keep's answer, and a kernel that brings its
//     own loops calls the middle step alone (Packer.Offsets).
//   - Histogram: per-member bucket counts merged team-parallel at the
//     barrier (Hist.Merge, callable alone after a caller's own counting
//     loop); the per-(member, bucket) matrix is retained because
//     mixed-mode sorts (internal/ssort) and internal/query's GroupBy
//     scatter from exactly that matrix: each member sums its own cursors
//     from the totals and the rows before its own (Hist.Cursors), with no
//     scan and no barrier.
//   - Claimer: the two-ended block acquisition of the data-parallel
//     partitioning step itself, reused by internal/qsort's Algorithm 11.
//
// Every primitive exists in two forms: a collective method callable from
// inside a running team task (every member of the team must call it, like
// an MPI collective; the scan's is its task's Run), and a standalone
// core.Task constructor for callers outside the scheduler, which runs that
// collective at every np, 1 included (a task of one thread is a team of
// one). Each has a sequential
// oracle (the Seq* functions) that the collective dispatches to when the
// executing team has size 1, so single-threaded execution is byte-for-byte
// the reference semantics that the property tests compare team executions
// against.
//
// Shared state objects (Reducer, Packer, Hist) are
// allocated once by the task's creator and shared by the team via the task
// closure. Every collective ends in the team barrier, so a state object may
// be reused for any number of consecutive phases by the same team. That
// holds by construction, as in an OpenMP worksharing construct: each
// exported collective is an unexported body followed by ctx.Barrier(), no
// return of the body can skip it, and a collective built on another calls
// that one's body, so it still ends in exactly one barrier. (On a team of
// one the barrier returns at once.)
//
// The standalone-task constructors compose with the scheduler's quiescence
// groups: spawn the returned task through a core.Group (g.Run for a
// blocking call, g.Spawn + g.Wait to batch several primitives) and the
// primitive completes within that group alone, so independent clients can
// run team-parallel kernels concurrently on one shared scheduler without
// waiting for each other's work.
package par

// Chunk returns the static-schedule chunk [lo, hi) of team member lid of w
// over the index range [0, n): the lid-th of w near-equal contiguous
// chunks (the same split as core.ForStatic and Ctx.TeamFor). Primitives
// whose member→index mapping must agree across phases (Histogram counting
// vs. the caller's scatter) document that they use Chunk.
func Chunk(lid, w, n int) (lo, hi int) {
	return lid * n / w, (lid + 1) * n / w
}

// slot is a padded per-member cell: 64 bytes of trailing padding keep
// neighboring members' writes on distinct cache lines.
type slot[A any] struct {
	v A
	_ [64]byte
}

// checkTeam panics when the executing team is wider than the state object
// was allocated for — a construction bug that would otherwise corrupt
// neighboring slots.
func checkTeam(w, np int) {
	if w > np {
		panic("par: team wider than the primitive's state (built for fewer members)")
	}
}
