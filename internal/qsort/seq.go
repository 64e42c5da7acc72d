package qsort

import (
	"math/bits"
	"slices"

	"repro/internal/par"
)

// Introsort sorts data with the introspective sort algorithm used by
// libstdc++'s std::sort: median-of-3 quicksort with a 2·⌊log2 n⌋ depth limit
// falling back to heapsort, handing every piece of at most smallMax elements
// to smallSort. It is the repository's stand-in for the paper's "best
// sequential implementation available (STL)" — the Seq/STL column of every
// table, and the leaf of every parallel sort. Elements that have no order
// (NaN) come out as some permutation of the input.
func Introsort[T Ordered](data []T) {
	if n := len(data); n > 1 {
		var tmp [smallMax]T
		introLoop(data, tmp[:], 2*(bits.Len(uint(n))-1))
	}
}

// smallMax is the longest piece smallSort takes: three merge levels above the
// network. 32 / 48 / 64 / 128 read 1.83 / 1.67 / 1.56 / 1.60 ms (2^16) and
// 34.0 / 32.8 / 31.6 / 31.6 ms (2^20) in BenchmarkIntrosort.
const smallMax = 64

func introLoop[T Ordered](data, tmp []T, depth int) {
	for len(data) > smallMax {
		if depth == 0 {
			heapSort(data)
			return
		}
		depth--
		s := HoarePartition(data)
		// Recurse into the smaller side, loop on the larger: O(log n) stack.
		if s < len(data)-s {
			introLoop(data[:s], tmp, depth)
			data = data[s:]
		} else {
			introLoop(data[s:], tmp, depth)
			data = data[:s]
		}
	}
	smallSort(data, tmp)
}

// smallSort sorts at most smallMax elements without a jump that depends on
// one (Bingmann, Marianczuk & Sanders, Engineering Faster Sorters for Small
// Sets of Items): windows of 8 go through the sorting network, then levels of
// pairwise merges, balanced in runs, alternate between data and tmp
// (len(tmp) ≥ len(data)). The windows are aligned to the end of data, but the
// first one to its start: the second takes that one's largest elements along
// and leaves its smallest as a short first run, so no run needs padding.
func smallSort[T Ordered](data, tmp []T) {
	n := len(data)
	if n < 8 {
		if n < 2 {
			return
		}
		// One network for every length and type, no sentinel value: pad with
		// the maximum (or a NaN), which no exchange moves ahead of an element.
		m := slices.Max(data)
		r := [8]T{m, m, m, m, m, m, m, m}
		copy(r[:], data)
		sort8(&r)
		copy(data, r[:])
		return
	}
	nr := (n + 7) / 8
	cut := func(run int) int { return max(0, n-8*(nr-run)) }
	for k := range nr {
		sort8((*[8]T)(data[cut(k):]))
	}
	lv := bits.Len(uint(nr - 1))
	src, dst := data, tmp[:n]
	for l := lv; l > 0; l-- {
		for i := 0; i < 1<<l; i += 2 {
			lo, mid, hi := cut(i*nr>>l), cut((i+1)*nr>>l), cut((i+2)*nr>>l)
			merge(dst[lo:hi], src[lo:hi], mid-lo)
		}
		src, dst = dst, src
	}
	if lv&1 == 1 {
		copy(data, tmp)
	}
}

// cswap returns a and b in order, by two conditional moves once inlined.
// Compared with < only: the min and max builtins propagate NaN and would
// lose an element.
func cswap[T Ordered](a, b T) (T, T) {
	lo, hi := a, b
	if b < a { //repro:asm cmp
		lo = b
	}
	if b < a { //repro:asm cmp
		hi = a
	}
	return lo, hi
}

// sort8 sorts r with the optimal 19-exchange network.
//
//repro:asm cmp
func sort8[T Ordered](r *[8]T) {
	a, b, c, d, e, f, g, h := r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7]
	a, c = cswap(a, c)
	b, d = cswap(b, d)
	e, g = cswap(e, g)
	f, h = cswap(f, h)
	a, e = cswap(a, e)
	b, f = cswap(b, f)
	c, g = cswap(c, g)
	d, h = cswap(d, h)
	a, b = cswap(a, b)
	c, d = cswap(c, d)
	e, f = cswap(e, f)
	g, h = cswap(g, h)
	c, e = cswap(c, e)
	d, f = cswap(d, f)
	b, e = cswap(b, e)
	d, g = cswap(d, g)
	b, c = cswap(b, c)
	d, e = cswap(d, e)
	f, g = cswap(f, g)
	*r = [8]T{a, b, c, d, e, f, g, h}
}

// merge merges the sorted runs src[:mid] and src[mid:] into dst from both
// ends at once: two independent load → compare → advance chains, each
// selecting with a conditional move and advancing by the comparison's 0/1.
// As many steps from either end as the shorter run is long cannot run off a
// run; what is left between the heads, the difference of the lengths, is
// merged from the front alone. Heads that passed each other — only elements
// without an order do that — would not leave a permutation in dst: src is
// copied instead.
func merge[T Ordered](dst, src []T, mid int) {
	n := len(src)
	dst = dst[:n]
	i, j, p, q := 0, mid, mid-1, n-1
	lo, m := 0, min(mid, n-mid)
	for ; lo < m; lo++ {
		x, y := src[i], src[j]
		c := y < x //repro:asm cmp
		i, j = i+1-par.B2i(c), j+par.B2i(c)
		if c {
			x = y
		}
		dst[lo] = x
		x, y = src[p], src[q]
		c = y < x //repro:asm cmp
		p, q = p-par.B2i(c), q-1+par.B2i(c)
		if c {
			y = x
		}
		dst[n-1-lo] = y
	}
	if i > p+1 || j > q+1 {
		copy(dst, src)
		return
	}
	for ; i <= p && j <= q; lo++ {
		x, y := src[i], src[j]
		c := y < x //repro:asm cmp
		i, j = i+1-par.B2i(c), j+par.B2i(c)
		if c {
			x = y
		}
		dst[lo] = x
	}
	if i > p {
		i, p = j, q
	}
	copy(dst[lo:], src[i:p+1])
}

// heapSort is the depth-limit fallback of Introsort.
func heapSort[T Ordered](data []T) {
	n := len(data)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(data, i, n)
	}
	for i := n - 1; i > 0; i-- {
		data[0], data[i] = data[i], data[0]
		siftDown(data, 0, i)
	}
}

func siftDown[T Ordered](data []T, root, n int) {
	for {
		child := 2*root + 1
		if child >= n {
			return
		}
		if child+1 < n && data[child+1] > data[child] {
			child++
		}
		if data[root] >= data[child] {
			return
		}
		data[root], data[child] = data[child], data[root]
		root = child
	}
}

// SequentialQuicksortCutoff is the handwritten reference quicksort of the
// tables' SeqQS column: plain recursive quicksort "that uses the same cutoff
// to switch to STL sort as the parallel implementations" (DefaultCutoff).
func SequentialQuicksortCutoff[T Ordered](data []T, cutoff int) {
	if cutoff < 2 {
		cutoff = 2
	}
	for len(data) > cutoff {
		s := HoarePartition(data)
		if s < len(data)-s {
			SequentialQuicksortCutoff(data[:s], cutoff)
			data = data[s:]
		} else {
			SequentialQuicksortCutoff(data[s:], cutoff)
			data = data[:s]
		}
	}
	Introsort(data)
}
