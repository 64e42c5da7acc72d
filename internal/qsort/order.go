// Package qsort implements every sorting algorithm of the paper's evaluation
// (§5): the sequential baselines (an introsort standing in for STL sort, and
// the handwritten reference quicksort), the task-parallel fork-join quicksort
// of Algorithm 10 on both schedulers, and the mixed-mode parallel
// quicksort of Algorithm 11 with the block-based data-parallel partitioning
// step of Tsigas & Zhang on the team-building scheduler.
//
// All of them partition by blocks (partition.go; Edelkamp & Weiß,
// BlockQuicksort, ESA 2016): a side scans a sub-block, writing the offsets of
// the elements that must leave it into a buffer whose index advances by the
// comparison's 0/1 result, then the two sides' buffered positions are swapped
// pairwise. Neither loop branches on the data, where the classic two-pointer
// loop mispredicts on every second element of random input. All of them sort
// what is left below their cutoff with Introsort (seq.go), whose own base
// case, a sorting network under two-ended merges, does not either.
package qsort

// Ordered is the constraint for sortable element types (the paper sorts
// 4-byte integers; the algorithms are generic over all ordered types).
type Ordered interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64 | ~string
}

// Default tunables, taken from §5 of the paper.
const (
	// DefaultCutoff is the subsequence length below which the parallel sorts
	// switch to the sequential STL-style sort ("we decided to let all
	// subsequences with less than 512 elements be sorted by STL sort").
	DefaultCutoff = 512
	// DefaultBlockSize is the block length of the data-parallel partitioning
	// step ("we decided on a block-size of 4096").
	DefaultBlockSize = 4096
	// DefaultMinBlocksPerThread controls getBestNp: "each thread working on
	// parallel partitioning should at least have 128 blocks to work on".
	DefaultMinBlocksPerThread = 128
)

// IsSorted reports whether data is in non-decreasing order.
func IsSorted[T Ordered](data []T) bool {
	for i := 1; i < len(data); i++ {
		if data[i] < data[i-1] {
			return false
		}
	}
	return true
}

// med3 is the median of a, b and c by three exchanges, no jump.
func med3[T Ordered](a, b, c T) T {
	a, b = cswap(a, b)
	b, c = cswap(b, c)
	_, b = cswap(a, b)
	return b
}
