// Package query provides composable team-parallel analytics operators on
// the team-building scheduler — the repository's second application domain
// beside sorting, exercising the paper's mixed-mode model under the request
// shapes of a columnar query engine instead of a single sort kernel.
//
// The operators are expressed entirely over the team-parallel primitives of
// internal/par, continuing the argument that deterministically built teams
// make data-parallel kernels compositional:
//
//   - Filter: stable predicate compaction — par.Pack's pattern (flag-count,
//     exclusive scan of the counts, order-preserving scatter) with the
//     predicate called directly and neither loop jumping on its answer.
//   - GroupBy: bucket-contiguous reordering — par.Hist counts the
//     per-(member, bucket) matrix, an exclusive scan of the totals yields
//     bucket start offsets, and each member scatters its chunk through its
//     private cursors (par.Hist.Cursors), conflict-free and stable, exactly
//     the bucketing step of internal/ssort generalized to arbitrary keys.
//   - Aggregate: the histogram generalized from counting to an arbitrary
//     monoid — each member folds its chunk into a private per-bucket row,
//     and the rows are merged team-parallel at the barrier, so grouped
//     aggregation never materializes the groups.
//   - TopK: per-member bounded-heap selection over static chunks, merged by
//     member 0 — selection composed with the existing sequential sort.
//   - MergeJoin: run-aligned team-parallel merge join over two sorted
//     relations — each member owns the key runs starting in its static
//     chunk, locates the matching range of the other side by binary search,
//     and the matched runs are counted, scanned and written conflict-free
//     (the Pack pattern lifted from elements to key runs). SortJoin stages
//     the inputs through the mixed-mode samplesort first.
//
// Every operator exists in three forms, mirroring internal/par: a
// collective method callable from inside a running team task (every member
// must call it), a standalone core.Task constructor for callers outside the
// scheduler, and a sequential oracle (the Seq* functions) that defines the
// semantics and that the property and fuzz tests compare every team
// execution against. Team size 1 dispatches to the oracle, so
// single-threaded execution is byte-for-byte the reference semantics.
//
// Plan (plan.go) chains operators into one request with preallocated
// intermediates, so heterogeneous shapes — short filters, long sorts,
// team-heavy aggregations — compose into a single client submission on a
// shared scheduler (the cmd/throughput "analytics" mix).
package query

import "repro/internal/qsort"

// Ordered is the element constraint of the operators (the sorting stack's).
type Ordered = qsort.Ordered

// DefaultMinPerThread is the default minimum number of elements per team
// member of a standalone operator task. Analytics kernels are single-pass
// and memory-light compared to sorting, so teams pay off at smaller inputs
// than the sorts' 1<<15 quota.
const DefaultMinPerThread = 1 << 13

// pslot is a padded per-member cell (same idea as internal/par's slot):
// trailing padding keeps neighboring members' writes on distinct cache
// lines.
type pslot struct {
	v int
	_ [64]byte
}

// checkTeam panics when the executing team is wider than the state object
// was allocated for.
func checkTeam(w, np int) {
	if w > np {
		panic("query: team wider than the operator's state (built for fewer members)")
	}
}
