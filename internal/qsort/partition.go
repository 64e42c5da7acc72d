package qsort

const (
	// subBlock is the most elements one scan covers: all a uint8 offset can
	// address. 64 / 128 / 256 read 52.8 / 51.0 / 48.2 ms in BenchmarkIntrosort
	// (2^20) and 5.4 / 4.8 / 4.1 ms in BenchmarkParallelPartition/np=1 (2^22);
	// 512 with uint16 offsets 51.8 and 4.3.
	subBlock = 256
	// minScan is the fewest elements worth a scan: the sequential kernels
	// halve the sub-block as the sides close in and leave a gap < 2·minScan
	// to the classic loop. 8 / 16 / 32 / 64 / never halving read 48.0 / 48.2 /
	// 49.7 / 51.5 / 58.0 ms in BenchmarkIntrosort.
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

// blockPhase is the block loop of the two sequential kernels: the sides
// start at the ends of data and scan its shared middle while both can take
// minScan elements — not at all on short input. It returns the range [lo, hi)
// left to the caller's classic two-pointer loop, data[:lo] ≤ pv ≤ data[hi:];
// a side with pending elements is rewound to the first of them.
func blockPhase[T Ordered](data []T, pv T, stopEq bool) (lo, hi int) {
	if len(data) < 2*minScan {
		return 0, len(data) // spare the short calls the two buffers' zeroing
	}
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
	if l.n > 0 {
		l.lo = l.base + int(l.offs[l.first])
	}
	if r.n > 0 {
		r.hi = r.base + int(r.offs[r.first]) + 1
	}
	return l.lo, r.hi
}

// HoarePartition partitions data around the median of its first, middle and
// last elements using Hoare's scheme and returns the split point s with
// 0 < s < len(data): every element of data[:s] is ≤ every element of
// data[s:]. The strict bounds guarantee progress for the recursive sorts
// even on constant inputs, and both sides stop on elements equal to the
// pivot, so duplicate-heavy input still splits in the middle.
// len(data) must be ≥ 2.
//
// The two-pointer loop runs unguarded from [lo, hi): i needs an element ≥ pv
// at or after lo, j one ≤ pv before hi. With lo = 0, hi = n they are the
// median-of-3 witnesses — of data[0], data[n/2], data[n-1], distinct
// positions for n ≥ 3, two are ≥ pv and two ≤ pv — which also keep j off n-1
// and -1, so 0 < s < n. If the block phase swapped a pair, what it swapped in
// lies outside [lo, hi) on both sides (a consumed offset is in a finished
// sub-block or before the first pending one): data[lo-1] ≤ pv and
// data[hi] ≥ pv stop the scans at the latest, and 0 < lo ≤ s ≤ hi < n. If it
// swapped nothing, data is unchanged, the sides passed only elements < pv and
// > pv, so all witnesses are inside [lo, hi) and the first argument applies.
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
	lo, hi := blockPhase(data, pv, true)
	i, j := lo-1, hi
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
// not occur in data, so the two-pointer loop checks its bounds.
func PartitionByValue[T Ordered](data []T, pv T) int {
	lo, hi := blockPhase(data, pv, false)
	i, j := lo, hi-1
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
