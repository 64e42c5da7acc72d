package qsort

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dist"
)

// InsertionSort sorts data by straight insertion: the trivially correct
// reference (Introsort's final pass until the sorting network replaced it).
func InsertionSort[T Ordered](data []T) {
	for i := 1; i < len(data); i++ {
		v := data[i]
		j := i - 1
		for j >= 0 && data[j] > v {
			data[j+1] = data[j]
			j--
		}
		data[j+1] = v
	}
}

// testInputs returns a varied set of adversarial and typical inputs.
func testInputs() map[string][]int32 {
	ins := map[string][]int32{
		"empty":     {},
		"single":    {42},
		"pair":      {2, 1},
		"pairEq":    {7, 7},
		"allEqual":  make([]int32, 1000),
		"sorted":    make([]int32, 1000),
		"reverse":   make([]int32, 1000),
		"sawtooth":  make([]int32, 1000),
		"twoVals":   make([]int32, 1000),
		"organPipe": make([]int32, 1000),
	}
	for i := 0; i < 1000; i++ {
		ins["allEqual"][i] = 5
		ins["sorted"][i] = int32(i)
		ins["reverse"][i] = int32(1000 - i)
		ins["sawtooth"][i] = int32(i % 13)
		ins["twoVals"][i] = int32(i % 2)
		if i < 500 {
			ins["organPipe"][i] = int32(i)
		} else {
			ins["organPipe"][i] = int32(1000 - i)
		}
	}
	for _, k := range dist.Kinds {
		ins["dist-"+k.String()] = dist.Generate(k, 20000, 7)
	}
	return ins
}

func checkSorted(t *testing.T, name string, got, orig []int32) {
	t.Helper()
	if !IsSorted(got) {
		t.Fatalf("%s: output not sorted", name)
	}
	want := append([]int32(nil), orig...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %d, want %d (multiset changed)", name, i, got[i], want[i])
		}
	}
}

func TestIntrosort(t *testing.T) {
	for name, in := range testInputs() {
		data := append([]int32(nil), in...)
		Introsort(data)
		checkSorted(t, name, data, in)
	}
}

func TestSequentialQuicksort(t *testing.T) {
	for name, in := range testInputs() {
		data := append([]int32(nil), in...)
		SequentialQuicksort(data)
		checkSorted(t, name, data, in)
	}
}

func TestSequentialQuicksortSmallCutoff(t *testing.T) {
	in := dist.Generate(dist.Random, 5000, 3)
	data := append([]int32(nil), in...)
	SequentialQuicksortCutoff(data, 2)
	checkSorted(t, "cutoff2", data, in)
}

func TestInsertionSort(t *testing.T) {
	in := dist.Generate(dist.Random, 500, 9)
	data := append([]int32(nil), in...)
	InsertionSort(data)
	checkSorted(t, "insertion", data, in)
}

// TestHeapSortViaDepthLimit: an exhausted depth budget still ends in the
// heapsort (any piece longer than smallMax), at once and after some
// partitioning levels.
func TestHeapSortViaDepthLimit(t *testing.T) {
	in := dist.Generate(dist.Random, 3000, 5)
	var tmp [smallMax]int32
	for depth := 0; depth < 4; depth++ {
		data := append([]int32(nil), in...)
		introLoop(data, tmp[:], depth)
		checkSorted(t, fmt.Sprintf("depth %d", depth), data, in)
	}
}

// TestSort8ZeroOne: a comparison network that sorts all 2^8 zero-one inputs
// sorts every input (the zero-one principle).
func TestSort8ZeroOne(t *testing.T) {
	for bitsIn := 0; bitsIn < 256; bitsIn++ {
		var r [8]int32
		for i := range r {
			r[i] = int32(bitsIn >> i & 1)
		}
		in := r
		sort8(&r)
		if !IsSorted(r[:]) || !sameMultiset(r[:], in[:]) {
			t.Fatalf("sort8(%v) = %v", in, r)
		}
	}
}

// checkSmallSort runs smallSort on a copy of in (any length: tmp is made to
// fit) and compares with slices.Sort. NaNs have no order: then the output
// must be a permutation of the input, compared as bit patterns.
func checkSmallSort[T Ordered](t testing.TB, name string, in []T, bitsOf func(T) uint64) {
	t.Helper()
	got, want := slices.Clone(in), slices.Clone(in)
	smallSort(got, make([]T, len(in)))
	if bitsOf != nil {
		got, want := convert(got, bitsOf), convert(want, bitsOf)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: smallSort(%v) is not a permutation of its input", name, in)
		}
		return
	}
	if slices.Sort(want); !slices.Equal(got, want) {
		t.Fatalf("%s: smallSort(%v) = %v", name, in, got)
	}
}

// TestSmallSortEveryLength covers every run count and merge-tree shape up to
// smallMax, the padded lengths under 8, and a few lengths beyond (smallSort
// itself has no limit but len(tmp)).
func TestSmallSortEveryLength(t *testing.T) {
	checkSmallSort(t, "n=0", []int32{}, nil)
	for n := 1; n <= 2*smallMax+1; n++ {
		for pat, in := range contractPatterns(n) {
			name := fmt.Sprintf("n=%d/%s", n, pat)
			checkSmallSort(t, name+"/int32", convert(in, func(v int) int32 { return int32(v) - 500 }), nil)
			checkSmallSort(t, name+"/string", convert(in, func(v int) string { return fmt.Sprintf("k%04d", v) }), nil)
			checkSmallSort(t, name+"/float64", convert(in, func(v int) float64 { return float64(v) / 8 }), nil)
			// Every third value a NaN, and NaNs only.
			for _, every := range []int{3, 1} {
				nans := convert(in, func(v int) float64 {
					if v%every == 0 {
						return math.NaN()
					}
					return float64(v)
				})
				checkSmallSort(t, name+"/NaN", nans, math.Float64bits)
			}
		}
	}
}

// TestIntrosortAtBaseCaseSizes: every distribution at the lengths where
// Introsort changes what it does — the base case alone, one partition above
// it, the two-pointer loop's last length, whole and halved sub-blocks.
func TestIntrosortAtBaseCaseSizes(t *testing.T) {
	sizes := []int{7, 8, 9, smallMax - 1, smallMax, smallMax + 1, 2*smallMax + 1,
		2*minScan - 1, 2 * minScan, 2*minScan + 1, subBlock - 1, subBlock, subBlock + 1, 2*subBlock + 1, 5000}
	for _, k := range dist.Kinds {
		for _, n := range sizes {
			in := dist.Generate(k, n, uint64(n))
			data := append([]int32(nil), in...)
			Introsort(data)
			checkSorted(t, fmt.Sprintf("%v/n=%d", k, n), data, in)
		}
	}
}

// FuzzSmallSort drives the base case with duplicate-dense int32 slices of any
// length and with float64 slices in which one value in eight is a NaN.
func FuzzSmallSort(f *testing.F) {
	for _, n := range []int{1, 5, 8, 9, 17, 33, smallMax, smallMax + 1} {
		for _, in := range contractPatterns(n) {
			f.Add(convert(in, func(v int) byte { return byte(v) }))
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkSmallSort(t, "int32", convert(raw, func(b byte) int32 { return int32(b % 16) }), nil)
		checkSmallSort(t, "float64", convert(raw, func(b byte) float64 {
			if b%8 == 0 {
				return math.NaN()
			}
			return float64(b)
		}), math.Float64bits)
	})
}

func TestIntrosortStrings(t *testing.T) {
	data := []string{"pear", "apple", "fig", "banana", "apple", ""}
	Introsort(data)
	if !IsSorted(data) {
		t.Fatalf("strings not sorted: %v", data)
	}
}

func TestIntrosortQuick(t *testing.T) {
	f := func(in []int32) bool {
		data := append([]int32(nil), in...)
		Introsort(data)
		if !IsSorted(data) {
			return false
		}
		want := append([]int32(nil), in...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if data[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHoarePartitionContract(t *testing.T) {
	f := func(in []int32) bool {
		if len(in) < 2 {
			return true
		}
		data := append([]int32(nil), in...)
		s := HoarePartition(data)
		if s <= 0 || s >= len(data) {
			return false // strict progress bounds
		}
		var maxL, minR int32 = data[0], data[s]
		for _, v := range data[:s] {
			if v > maxL {
				maxL = v
			}
		}
		for _, v := range data[s:] {
			if v < minR {
				minR = v
			}
		}
		return maxL <= minR
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestHoarePartitionAllEqual: both sides stop on elements equal to the pivot
// — in the block loop as in the tail — so constant input splits in the middle
// rather than at an end.
func TestHoarePartitionAllEqual(t *testing.T) {
	for _, n := range []int{100, 100_000} {
		data := make([]int32, n)
		s := HoarePartition(data)
		if s <= n/3 || s >= n-n/3 {
			t.Fatalf("all-equal split of %d = %d, want it in the middle third", n, s)
		}
	}
}

func TestPartitionByValueContract(t *testing.T) {
	f := func(in []int32, pv int32) bool {
		data := append([]int32(nil), in...)
		s := PartitionByValue(data, pv)
		if s < 0 || s > len(data) {
			return false
		}
		for _, v := range data[:s] {
			if v > pv {
				return false
			}
		}
		for _, v := range data[s:] {
			if v < pv {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNeutralize(t *testing.T) {
	// Left block of large values, right block of small: full swap.
	data := []int32{9, 9, 9, 9, 1, 1, 1, 1}
	l := &blockScan{lo: 0, hi: 4}
	r := &blockScan{lo: 4, hi: 8}
	neutralize(data, 5, l, r)
	if !l.exhausted() || !r.exhausted() {
		t.Fatalf("both blocks should neutralize: l=%+v r=%+v", l, r)
	}
	for i := 0; i < 4; i++ {
		if data[i] > 5 {
			t.Fatalf("left element %d = %d > pivot", i, data[i])
		}
		if data[4+i] < 5 {
			t.Fatalf("right element %d = %d < pivot", i, data[4+i])
		}
	}
}

func TestMed3(t *testing.T) {
	cases := [][4]int{
		{1, 2, 3, 2}, {3, 2, 1, 2}, {2, 1, 3, 2}, {2, 3, 1, 2},
		{1, 1, 2, 1}, {2, 2, 1, 2}, {1, 2, 1, 1}, {5, 5, 5, 5},
	}
	for _, c := range cases {
		if got := med3(c[0], c[1], c[2]); got != c[3] {
			t.Fatalf("med3(%d,%d,%d) = %d, want %d", c[0], c[1], c[2], got, c[3])
		}
	}
}

// TestBestNp pins the quicksort's getBestNp quota, BlockSize ×
// MinBlocksPerThread elements per partitioning thread, at the paper's
// defaults (core.BestNp has the rule's own table).
func TestBestNp(t *testing.T) {
	per := DefaultBlockSize * DefaultMinBlocksPerThread // elements required per thread
	cases := []struct {
		n, maxTeam, want int
	}{
		{per - 1, 64, 1},
		{2 * per, 64, 2},
		{4*per - 1, 64, 2},
		{4 * per, 64, 4},
		{64 * per, 64, 64},
		{1 << 30, 8, 8}, // capped by team size
		{100, 64, 1},    // tiny input
		{2 * per, 1, 1}, // single-thread scheduler
	}
	for _, c := range cases {
		if got := (MMOptions{}).withDefaults().bestNp(c.n, c.maxTeam); got != c.want {
			t.Fatalf("bestNp(%d, maxTeam=%d) = %d, want %d", c.n, c.maxTeam, got, c.want)
		}
	}
}

func TestIsSorted(t *testing.T) {
	if !IsSorted([]int32{}) || !IsSorted([]int32{1}) || !IsSorted([]int32{1, 1, 2}) {
		t.Fatal("IsSorted false negative")
	}
	if IsSorted([]int32{2, 1}) {
		t.Fatal("IsSorted false positive")
	}
}
