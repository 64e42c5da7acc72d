// Package msort implements a mixed-mode parallel merge sort on the
// team-building scheduler — one of the "further mixed-mode parallel
// applications" the paper's conclusion calls for, built on the same
// primitives as the mixed-mode Quicksort: tasks whose thread requirement
// shrinks with the subproblem and whose interiors are data-parallel.
//
// Structure: the array is recursively split into single-threaded sort tasks;
// when both children of a node have finished, the last one spawns the node's
// merge as a new task. Large merges are team tasks of np workers that
// partition the output range by co-ranking (Merge Path binary search on the
// two sorted inputs), so every member produces an independent output chunk.
// The whole computation is continuation-style — no worker ever blocks — so
// even full-width teams (np = p) can always form.
package msort

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/freelist"
	"repro/internal/par"
	"repro/internal/qsort"
)

// Options are the tunables of the mixed-mode merge sort.
type Options struct {
	// Cutoff is the subsequence length below which the sequential sort takes
	// over. Default 2048.
	Cutoff int
	// MinPerThread is the minimum number of output elements per team member
	// of a parallel merge. Default 1 << 16.
	MinPerThread int
}

func (o Options) withDefaults() Options {
	if o.Cutoff < 2 {
		o.Cutoff = 2048
	}
	if o.MinPerThread < 1 {
		o.MinPerThread = 1 << 16
	}
	return o
}

// Root returns the root task of the mixed-mode merge sort over data (the
// tables' "MSort" column). Run it with Scheduler.Run or Group.Run, or spawn
// it into a group beside other work: the whole continuation tree — child
// sorts and the merges they trigger through childDone — inherits the group,
// so the group drains exactly when the root merge has been written. It
// returns nil — the empty computation, which Run and Spawn accept — when
// there is nothing to sort. The algorithm is not in-place: the merges
// alternate between data and scratch: at least len(data) elements, disjoint
// from data, free again only once the group is quiescent (nil or too short,
// Root allocates its own).
func Root[T qsort.Ordered](data, scratch []T, opt Options) core.Task {
	opt = opt.withDefaults()
	n := len(data)
	if n < 2 {
		return nil
	}
	if len(scratch) < n {
		scratch = make([]T, n)
	}
	st := &msState[T]{opt: opt}
	return st.sortTask(data, scratch[:n], false, nil)
}

// msState is the shared state of one merge sort tree: the options plus the
// free lists of the sort tasks, the sequential merge tasks, and the merge
// join nodes, so the whole continuation tree (Θ(n/cutoff) spawns) allocates
// only as many of each as were once out at the same time. Tasks return
// themselves to their list as they start running (fields copied out first;
// the scheduler never touches a task value after invoking Run), and a
// mergeNode is recycled by whichever child finishes last, after it has
// extracted the merge description. The lists live as long as the tree, so
// they use their shared level only.
type msState[T qsort.Ordered] struct {
	opt    Options
	sorts  freelist.List[*msSortTask[T]]
	merges freelist.List[*msSeqMerge[T]]
	nodes  freelist.List[*mergeNode[T]]
}

// mergeNode is the join point of two child sorts. Whichever child finishes
// last spawns the merge (and recycles the node).
type mergeNode[T qsort.Ordered] struct {
	a, b, out []T
	parent    *mergeNode[T]
	pending   atomic.Int32
	st        *msState[T]
}

func (st *msState[T]) newMergeNode(parent *mergeNode[T]) *mergeNode[T] {
	m, ok := st.nodes.GetShared()
	if !ok {
		m = &mergeNode[T]{st: st}
	}
	m.parent = parent
	m.pending.Store(2)
	return m
}

// childDone is called by each completed child (and by the node's own merge
// task toward its parent). The last caller extracts the merge description,
// recycles the node, and spawns the merge.
func (m *mergeNode[T]) childDone(ctx *core.Ctx) {
	if m.pending.Add(-1) != 0 {
		return
	}
	st, parent := m.st, m.parent
	a, b, out := m.a, m.b, m.out
	m.a, m.b, m.out, m.parent = nil, nil, nil, nil
	st.nodes.PutShared(m)
	np := core.BestNp(len(out), st.opt.MinPerThread, ctx.Scheduler().MaxTeam())
	if np <= 1 {
		ctx.Spawn(st.seqMerge(a, b, out, parent))
		return
	}
	// Team merges are one per large node — a vanishing fraction of the
	// spawns — so their tasks are plain allocations, not pooled.
	ctx.Spawn(&msTeamMerge[T]{np: np, a: a, b: b, out: out, parent: parent})
}

// msSeqMerge is a pooled sequential merge task.
type msSeqMerge[T qsort.Ordered] struct {
	st        *msState[T]
	a, b, out []T
	parent    *mergeNode[T]
}

func (st *msState[T]) seqMerge(a, b, out []T, parent *mergeNode[T]) *msSeqMerge[T] {
	t, ok := st.merges.GetShared()
	if !ok {
		t = &msSeqMerge[T]{st: st}
	}
	t.a, t.b, t.out, t.parent = a, b, out, parent
	return t
}

func (t *msSeqMerge[T]) Threads() int { return 1 }

func (t *msSeqMerge[T]) Run(c *core.Ctx) {
	st, a, b, out, parent := t.st, t.a, t.b, t.out, t.parent
	t.a, t.b, t.out, t.parent = nil, nil, nil, nil
	st.merges.PutShared(t)
	if !c.Canceled() {
		mergeRange(a, b, out, 0, len(out))
	}
	if parent != nil {
		parent.childDone(c)
	}
}

// msTeamMerge is a team merge task of np workers: the output range is
// partitioned by co-ranking, every member writes an independent chunk.
type msTeamMerge[T qsort.Ordered] struct {
	np        int
	a, b, out []T
	parent    *mergeNode[T]
}

func (t *msTeamMerge[T]) Threads() int { return t.np }

func (t *msTeamMerge[T]) Run(c *core.Ctx) {
	lid := c.LocalID()
	lo, hi := par.Chunk(lid, c.TeamSize(), len(t.out))
	// On cancellation each member skips its merge chunk but still reaches
	// the barrier — members may disagree on the racy check, which only
	// affects how much of the abandoned output gets written, never the
	// barrier count.
	if !c.Canceled() {
		mergeRange(t.a, t.b, t.out, lo, hi)
	}
	c.Barrier() // the merge is complete once all chunks are written
	if lid == 0 && t.parent != nil {
		t.parent.childDone(c)
	}
}

// msSortTask is the pooled recursive sort task for src. The sorted result
// lands in src if !toTmp, else in tmp (the buffers alternate down the
// recursion so every merge reads one buffer and writes the other).
type msSortTask[T qsort.Ordered] struct {
	st       *msState[T]
	src, tmp []T
	toTmp    bool
	parent   *mergeNode[T]
}

func (st *msState[T]) sortTask(src, tmp []T, toTmp bool, parent *mergeNode[T]) *msSortTask[T] {
	t, ok := st.sorts.GetShared()
	if !ok {
		t = &msSortTask[T]{st: st}
	}
	t.src, t.tmp, t.toTmp, t.parent = src, tmp, toTmp, parent
	return t
}

func (t *msSortTask[T]) Threads() int { return 1 }

func (t *msSortTask[T]) Run(ctx *core.Ctx) {
	st, src, tmp, toTmp, parent := t.st, t.src, t.tmp, t.toTmp, t.parent
	t.src, t.tmp, t.parent = nil, nil, nil
	st.sorts.PutShared(t)
	st.sortRun(ctx, src, tmp, toTmp, parent)
}

// sortRun is the recursive split: the left child is spawned as a pooled
// task, the right child continues inline (standard work-first split,
// expressed as a loop).
func (st *msState[T]) sortRun(ctx *core.Ctx, src, tmp []T, toTmp bool, parent *mergeNode[T]) {
	for {
		if ctx.Canceled() {
			// Cooperative cancellation: stop splitting. The pending merge
			// nodes above this range are simply never completed — nothing
			// waits on a mergeNode (merges are spawned by the last child, not
			// joined), so the group drains and the range stays unsorted.
			return
		}
		n := len(src)
		if n <= st.opt.Cutoff {
			qsort.Introsort(src)
			if toTmp {
				copy(tmp, src)
			}
			if parent != nil {
				parent.childDone(ctx)
			}
			return
		}
		h := n / 2
		node := st.newMergeNode(parent)
		if toTmp {
			node.a, node.b, node.out = src[:h], src[h:], tmp
		} else {
			node.a, node.b, node.out = tmp[:h], tmp[h:], src
		}
		// Children sort into the opposite buffer of this node's output.
		ctx.Spawn(st.sortTask(src[:h], tmp[:h], !toTmp, node))
		src, tmp, toTmp, parent = src[h:], tmp[h:], !toTmp, node
	}
}

// coRank returns (i, j) with i+j = k such that merging a[:i] with b[:j]
// yields the first k elements of the full merge (Merge Path split point).
func coRank[T qsort.Ordered](a, b []T, k int) (int, int) {
	lo := k - len(b)
	if lo < 0 {
		lo = 0
	}
	hi := k
	if hi > len(a) {
		hi = len(a)
	}
	for lo < hi {
		i := (lo + hi) / 2
		j := k - i
		if i > 0 && j < len(b) && a[i-1] > b[j] {
			hi = i // i too big
		} else if j > 0 && i < len(a) && a[i] < b[j-1] {
			lo = i + 1 // i too small
		} else {
			return i, j
		}
	}
	return lo, k - lo
}

// mergeRange writes out[lo:hi) of the merge of sorted a and b.
func mergeRange[T qsort.Ordered](a, b, out []T, lo, hi int) {
	i, j := coRank(a, b, lo)
	for k := lo; k < hi; k++ {
		switch {
		case i >= len(a):
			out[k] = b[j]
			j++
		case j >= len(b):
			out[k] = a[i]
			i++
		case b[j] < a[i]:
			out[k] = b[j]
			j++
		default:
			out[k] = a[i]
			i++
		}
	}
}
