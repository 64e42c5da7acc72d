package qsort

const (
	// subBlock is the most elements one scan covers: all a uint8 offset can
	// address. 64 / 128 / 256 read 34.0 / 32.7 / 32.2 ms in BenchmarkIntrosort
	// (2^20).
	subBlock = 256
	// minScan is the fewest elements worth a scan: the sequential kernels
	// halve the sub-block as the sides close in, so that the side that scans
	// last is not left with more pending elements than the other can take,
	// and scan a gap < 2·minScan in one go. 8 / 16 / 32 read 32.1 / 32.2 /
	// 32.4 ms; 64, which leaves Introsort's pieces under 128 elements to the
	// two-pointer loop, 37.2.
	minScan = 16
)

// b2i is the idiom the scans count with: this shape compiles to SETcc, while
// `if c { n++ }` is branch-free only if the compiler chooses so, and as a jump
// is slower than the classic partition. scripts/codegencheck.sh checks.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// blockScan is one side of a partition in progress: the elements data[lo:hi]
// it has not scanned yet — a left side takes them from lo upwards, a right
// side from hi downwards — and the pending offsets, within the sub-block
// scanned last, of the elements that still have to leave the side. They are
// in scan order, so consuming them in order leaves everything scanned before
// the first pending one in place for good. The zero blockScan is exhausted.
type blockScan struct {
	lo, hi   int
	base     int // start of the sub-block scanned last
	first, n int // pending: data[base+offs[k]] for first ≤ k < first+n
	offs     [subBlock]uint8
}

// reset points s at a new unscanned range; the buffer needs no clearing.
func (s *blockScan) reset(lo, hi int) { s.lo, s.hi, s.n = lo, hi, 0 }

// exhausted reports all scanned, none pending: only ≤ pv (left) or ≥ pv (right).
func (s *blockScan) exhausted() bool { return s.n == 0 && s.lo >= s.hi }

// scanLeft scans the next k ≤ subBlock elements of a left side and makes
// pending those > pv — with stopEq those ≥ pv, Hoare's stop-on-equal rule.
func scanLeft[T Ordered](s *blockScan, data []T, pv T, k int, stopEq bool) {
	b, n := data[s.lo:s.lo+k], 0
	if stopEq {
		for i := range b {
			s.offs[uint8(n)] = uint8(i)
			n += b2i(b[i] >= pv)
		}
	} else {
		for i := range b {
			s.offs[uint8(n)] = uint8(i)
			n += b2i(b[i] > pv)
		}
	}
	s.base, s.lo, s.first, s.n = s.lo, s.lo+k, 0, n
}

// scanRight is scanLeft's mirror image: it scans the last k unscanned
// elements of a right side downwards and makes pending those < pv (≤ pv).
func scanRight[T Ordered](s *blockScan, data []T, pv T, k int, stopEq bool) {
	b, n := data[s.hi-k:s.hi], 0
	if stopEq {
		for i := len(b) - 1; i >= 0; i-- {
			s.offs[uint8(n)] = uint8(i)
			n += b2i(b[i] <= pv)
		}
	} else {
		for i := len(b) - 1; i >= 0; i-- {
			s.offs[uint8(n)] = uint8(i)
			n += b2i(b[i] < pv)
		}
	}
	s.base, s.hi, s.first, s.n = s.hi-k, s.hi-k, 0, n
}

// swapPending swaps the two sides' pending elements pairwise until one runs out.
func swapPending[T Ordered](data []T, l, r *blockScan) {
	k := min(l.n, r.n)
	lo, ro := l.offs[l.first:l.first+k], r.offs[r.first:r.first+k]
	for i := range lo {
		a, b := l.base+int(lo[i]), r.base+int(ro[i])
		data[a], data[b] = data[b], data[a]
	}
	l.first, l.n, r.first, r.n = l.first+k, l.n-k, r.first+k, r.n-k
}

// blockPartition partitions data, at least 2·minScan elements, around pv and
// returns the split s: data[:s] ≤ pv ≤ data[s:], elements equal to pv on
// either side with stopEq and left where they are without. The sides start at
// the ends of data and scan its shared middle, halving the sub-block as they
// close in; under 2·minScan unscanned elements go to a side that has nothing
// pending in one last scan. The side then left with pending elements gives
// them up to the other: taken from the back, each changes places with the
// element at its side's inner end — itself, or one that stays — so the loop
// runs once per leftover element and jumps on none (Edelkamp & Weiß's finish).
func blockPartition[T Ordered](data []T, pv T, stopEq bool) int {
	l, r := blockScan{}, blockScan{hi: len(data)}
	for r.hi-l.lo >= 2*minScan {
		k := min(subBlock, (r.hi-l.lo)/2)
		if l.n == 0 {
			scanLeft(&l, data, pv, k, stopEq)
		}
		if r.n == 0 {
			scanRight(&r, data, pv, k, stopEq)
		}
		swapPending(data, &l, &r)
	}
	if l.n == 0 {
		scanLeft(&l, data, pv, r.hi-l.lo, stopEq)
	} else {
		scanRight(&r, data, pv, r.hi-l.lo, stopEq)
	}
	swapPending(data, &l, &r)
	s := l.lo // = r.hi
	for k := l.first + l.n - 1; k >= l.first; k-- {
		s--
		i := l.base + int(l.offs[k])
		data[i], data[s] = data[s], data[i]
	}
	for k := r.first + r.n - 1; k >= r.first; k-- {
		i := r.base + int(r.offs[k])
		data[i], data[s] = data[s], data[i]
		s++
	}
	return s
}

// HoarePartition partitions data around the median of its first, middle and
// last elements and returns the split point s with 0 < s < len(data): every
// element of data[:s] is ≤ every element of data[s:]. The strict bounds
// guarantee progress for the recursive sorts even on constant inputs, and
// both sides stop on elements equal to the pivot, so duplicate-heavy input
// still splits in the middle. len(data) must be ≥ 2.
//
// Hoare's two-pointer loop is left with the short inputs and with a block
// partition that split at 0 or n. That one swapped nothing — a swap puts an
// element on either side of the split — so data is as it was, and the loop
// runs unguarded on the median-of-3 witnesses: of data[0], data[n/2],
// data[n-1], distinct positions for n ≥ 3, two are ≥ pv and stop i, two are
// ≤ pv and stop j, which also keeps j off n-1 and -1.
func HoarePartition[T Ordered](data []T) int {
	n := len(data)
	if n == 2 {
		// The med3 argument positions coincide for n = 2; handle directly
		// (the strict-bounds guarantee needs three distinct sample indices).
		if data[1] < data[0] {
			data[0], data[1] = data[1], data[0]
		}
		return 1
	}
	pv := med3(data[0], data[n/2], data[n-1])
	if n >= 2*minScan {
		if s := blockPartition(data, pv, true); 0 < s && s < n {
			return s
		}
	}
	i, j := -1, n
	for {
		for {
			i++
			if data[i] >= pv {
				break
			}
		}
		for {
			j--
			if data[j] <= pv {
				break
			}
		}
		if i >= j {
			return j + 1
		}
		data[i], data[j] = data[j], data[i]
	}
}

// PartitionByValue partitions data around the explicit pivot value pv,
// returning s such that data[:s] ≤ pv and data[s:] ≥ pv. Elements equal to pv
// stay where they are, and s may be 0 or len(data) when pv is extremal;
// callers must handle the degenerate split. This is the sequential kernel
// used by the data-parallel partitioning step for the middle region. pv need
// not occur in data, so the short inputs' two-pointer loop checks its bounds.
func PartitionByValue[T Ordered](data []T, pv T) int {
	if len(data) >= 2*minScan {
		return blockPartition(data, pv, false)
	}
	i, j := 0, len(data)-1
	for {
		for i <= j && data[i] <= pv {
			i++
		}
		for i <= j && data[j] >= pv {
			j--
		}
		if i >= j {
			return i
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
}

// neutralize runs the Tsigas–Zhang neutralization step on a left and a
// right block: left elements ≤ pv stay, right elements ≥ pv stay, and a bad
// pair (left > pv, right < pv) is swapped, until at least one block is
// exhausted (neutralized). The other keeps its unscanned range and pending
// offsets, so the next call, against a fresh partner, resumes from there.
func neutralize[T Ordered](data []T, pv T, l, r *blockScan) {
	for {
		for l.n == 0 && l.lo < l.hi {
			scanLeft(l, data, pv, min(subBlock, l.hi-l.lo), false)
		}
		for r.n == 0 && r.lo < r.hi {
			scanRight(r, data, pv, min(subBlock, r.hi-r.lo), false)
		}
		if l.n == 0 || r.n == 0 {
			return
		}
		swapPending(data, l, r)
	}
}

// swapRanges exchanges data[a:a+k] and data[b:b+k]; the ranges must not
// overlap.
func swapRanges[T Ordered](data []T, a, b, k int) {
	for i := 0; i < k; i++ {
		data[a+i], data[b+i] = data[b+i], data[a+i]
	}
}
