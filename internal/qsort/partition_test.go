package qsort

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dist"
)

// The quick-check contracts in seq_test.go draw slices of at most 50
// elements, most of them the two-pointer loop's; the tables here walk the
// kernels across the sizes where the block loop starts, takes whole
// sub-blocks, and finishes a partly consumed one.

// contractLengths are the lengths around minScan and subBlock boundaries,
// plus two that run the block loop many times.
func contractLengths() []int {
	const m, w = minScan, subBlock
	return []int{2, 3, 2*m - 1, 2 * m, 2*m + 1, w - 1, w, w + 1, 2*w - 1, 2 * w, 2*w + 1, 3*w + 5, 10_007, 1 << 17}
}

// contractPatterns returns the named inputs of length n as non-negative
// ints (order-preservingly convertible to every element type under test).
// pivmin / pivmax make the median of first, middle and last the smallest /
// largest value of the array.
func contractPatterns(n int) map[string][]int {
	rnd := dist.Generate(dist.Random, n, uint64(n))
	ps := map[string][]int{}
	for _, name := range []string{"random", "equal", "twovals", "sorted", "reversed", "organpipe", "pivmin", "pivmax"} {
		ps[name] = make([]int, n)
	}
	for i := 0; i < n; i++ {
		r := int(uint32(rnd[i]) % 1000)
		ps["random"][i] = r
		ps["equal"][i] = 7
		ps["twovals"][i] = r % 2
		ps["sorted"][i] = i
		ps["reversed"][i] = n - i
		ps["organpipe"][i] = min(i, n-i)
		ps["pivmin"][i] = 1 + r
		ps["pivmax"][i] = r
	}
	ps["pivmin"][0], ps["pivmin"][n/2] = 0, 0
	ps["pivmax"][n-1], ps["pivmax"][n/2] = 1000, 1000
	return ps
}

func convert[S, T any](in []S, conv func(S) T) []T {
	out := make([]T, len(in))
	for i, v := range in {
		out[i] = conv(v)
	}
	return out
}

// sameMultiset reports whether got is a permutation of orig.
func sameMultiset[T Ordered](got, orig []T) bool {
	counts := make(map[T]int, 1024)
	for _, v := range orig {
		counts[v]++
	}
	for _, v := range got {
		counts[v]--
	}
	for _, c := range counts {
		if c != 0 {
			return false
		}
	}
	return true
}

// checkHoare checks HoarePartition's contract on a copy of in.
func checkHoare[T Ordered](t testing.TB, name string, in []T) {
	t.Helper()
	data := slices.Clone(in)
	s := HoarePartition(data)
	if s <= 0 || s >= len(data) {
		t.Fatalf("%s: HoarePartition split %d outside (0, %d)", name, s, len(data))
	}
	if l, r := slices.Max(data[:s]), slices.Min(data[s:]); l > r {
		t.Fatalf("%s: HoarePartition split %d: max(left) %v > min(right) %v", name, s, l, r)
	}
	if !sameMultiset(data, in) {
		t.Fatalf("%s: HoarePartition changed the multiset", name)
	}
}

// checkByValue checks PartitionByValue's contract on a copy of in.
func checkByValue[T Ordered](t testing.TB, name string, in []T, pv T) {
	t.Helper()
	data := slices.Clone(in)
	s := PartitionByValue(data, pv)
	if s < 0 || s > len(data) {
		t.Fatalf("%s: PartitionByValue split %d outside [0, %d]", name, s, len(data))
	}
	for i, v := range data {
		if i < s && v > pv || i >= s && v < pv {
			t.Fatalf("%s: PartitionByValue split %d, pivot %v: data[%d] = %v on the wrong side", name, s, pv, i, v)
		}
	}
	if !sameMultiset(data, in) {
		t.Fatalf("%s: PartitionByValue changed the multiset", name)
	}
}

// checkNeutralize runs phase 1's loop sequentially on a copy of in: the
// left blocks are data[:cut] cut into pieces of lb elements (the last one
// shorter), the right blocks data[cut:] in pieces of rb, each side acquired
// in order and one blockScan per side carried from partner to partner. Every
// block reported exhausted must hold only its side's elements, and the loop
// must end with one side out of blocks.
func checkNeutralize[T Ordered](t testing.TB, name string, in []T, pv T, cut, lb, rb int) {
	t.Helper()
	data := slices.Clone(in)
	n := len(data)
	var L, R blockScan
	nextL, nextR := 0, cut
	take := func(s *blockScan, next *int, end, size int) bool {
		if *next >= end {
			return false
		}
		s.reset(*next, min(*next+size, end))
		*next = s.hi
		return true
	}
	okL, okR := take(&L, &nextL, cut, lb), take(&R, &nextR, n, rb)
	startL, startR := 0, cut
	for rounds := 0; okL && okR; rounds++ {
		if rounds > 2*n+2 {
			t.Fatalf("%s: neutralize makes no progress", name)
		}
		neutralize(data, pv, &L, &R)
		if !L.exhausted() && !R.exhausted() {
			t.Fatalf("%s: neutralize returned with neither block exhausted", name)
		}
		if L.exhausted() {
			for i := startL; i < nextL; i++ {
				if data[i] > pv {
					t.Fatalf("%s: neutral left block [%d,%d) holds data[%d] = %v > pivot %v", name, startL, nextL, i, data[i], pv)
				}
			}
			startL = nextL
			okL = take(&L, &nextL, cut, lb)
		}
		if R.exhausted() {
			for i := startR; i < nextR; i++ {
				if data[i] < pv {
					t.Fatalf("%s: neutral right block [%d,%d) holds data[%d] = %v < pivot %v", name, startR, nextR, i, data[i], pv)
				}
			}
			startR = nextR
			okR = take(&R, &nextR, n, rb)
		}
	}
	if !sameMultiset(data, in) {
		t.Fatalf("%s: neutralize changed the multiset", name)
	}
}

// checkKernels runs all three kernels' contract checks over one input; the
// pivots for the two value-based kernels are the input's middle element, its
// extremes, and a value outside it on either side (below, above).
func checkKernels[T Ordered](t testing.TB, name string, in []T, below, above T) {
	t.Helper()
	checkHoare(t, name, in)
	n := len(in)
	for _, pv := range []T{in[n/2], slices.Min(in), slices.Max(in), below, above} {
		checkByValue(t, name, in, pv)
		checkNeutralize(t, name, in, pv, n/2, subBlock, subBlock)
	}
	// Unequal blocks on either side, and one block a side.
	checkNeutralize(t, name, in, in[n/2], n/3, 3*subBlock+5, minScan-1)
	checkNeutralize(t, name, in, in[n/2], n-n/3, 7, 2*subBlock)
	checkNeutralize(t, name, in, in[n/2], n/2, n, n)
}

func TestPartitionContractsAtBlockSizes(t *testing.T) {
	for _, n := range contractLengths() {
		if testing.Short() && n > 10_007 {
			continue
		}
		for pat, in := range contractPatterns(n) {
			name := fmt.Sprintf("n=%d/%s", n, pat)
			checkKernels(t, name+"/int32", convert(in, func(v int) int32 { return int32(v) }), -1, 1<<30)
			checkKernels(t, name+"/float64", convert(in, func(v int) float64 { return float64(v) / 8 }), -1, 1e12)
			checkKernels(t, name+"/string", convert(in, func(v int) string { return fmt.Sprintf("k%07d", v) }), "", "z")
		}
	}
}

// TestHoarePartitionExtremalSplit pins the one input shape on which the block
// partition cannot keep HoarePartition's strict bounds: the pivot is the
// maximum and its only copies are the samples at n/2 and n-1, both in the
// right side's scan, so every element there stops the right side, none stops
// the left, nothing is swapped and the right side ends up owning no element
// (n even and at most two sub-blocks; longer or odd, the left side scans
// n/2). The split at n is asserted, so the test cannot go stale;
// HoarePartition must answer with the two-pointer loop's split, as it must for
// the mirror image — whose pivot copy at n/2 is swapped left, so the block
// partition's own split stands — and for constant input.
func TestHoarePartitionExtremalSplit(t *testing.T) {
	for _, n := range []int{2 * minScan, 100, subBlock, 2 * subBlock} {
		ps := contractPatterns(n)
		in := convert(ps["pivmax"], func(v int) int32 { return int32(v) })
		if s := blockPartition(slices.Clone(in), 1000, true); s != n {
			t.Errorf("n=%d: block partition around the maximum split at %d, expected the degenerate %d", n, s, n)
		}
		for _, pat := range []string{"pivmax", "pivmin", "equal"} {
			checkHoare(t, fmt.Sprintf("n=%d/%s", n, pat), convert(ps[pat], func(v int) int32 { return int32(v) }))
		}
	}
}

// TestNeutralizeNeutralAndResumed pins the two cases the table reaches only
// by chance: a block that is neutral before the call, and a block whose
// pending offsets outlive its partner and are consumed against the next one.
func TestNeutralizeNeutralAndResumed(t *testing.T) {
	const w = subBlock
	// Left block already ≤ pv everywhere: exhausted without a swap, and the
	// right block untouched however wrong it is.
	data := make([]int32, 2*w)
	orig := slices.Clone(data)
	var l, r blockScan
	l.reset(0, w)
	r.reset(w, 2*w)
	neutralize(data, 5, &l, &r)
	if !l.exhausted() || r.exhausted() || !slices.Equal(data, orig) {
		t.Fatalf("neutral left block: l=%v r=%v exhausted, data changed=%v", l.exhausted(), r.exhausted(), !slices.Equal(data, orig))
	}

	// One left block of 3w+1 elements, all > pv, against right blocks of w/2
	// elements, all < pv: every call exhausts the right block and leaves the
	// left one with pending offsets for the next.
	nl := 3*w + 1
	data = make([]int32, 2*nl)
	for i := 0; i < nl; i++ {
		data[i] = 9
	}
	l.reset(0, nl)
	calls := 0
	for pos := nl; pos < 2*nl; pos += w / 2 {
		r.reset(pos, min(pos+w/2, 2*nl))
		neutralize(data, 5, &l, &r)
		calls++
		if !r.exhausted() {
			t.Fatalf("call %d: right block not exhausted", calls)
		}
		if last := pos+w/2 >= 2*nl; l.exhausted() != last {
			t.Fatalf("call %d: left exhausted = %v, pending %d", calls, l.exhausted(), l.n)
		} else if !last && l.n == 0 {
			t.Fatalf("call %d: left block carries no pending offsets into the next call", calls)
		}
	}
	for i, v := range data {
		if (i < nl) != (v == 0) {
			t.Fatalf("after %d calls data[%d] = %d", calls, i, v)
		}
	}
}

// FuzzPartition drives the three kernels and Introsort with slices over an
// eight-letter alphabet, so duplicates of the pivot are dense and the finish
// meets sides with everything pending, nothing pending, and the split at n.
func FuzzPartition(f *testing.F) {
	for _, n := range []int{2, 2*minScan + 1, subBlock - 1, 2*subBlock + 1, 3*subBlock + 5, 2 * minScan} {
		for _, in := range contractPatterns(n) {
			f.Add(convert(in, func(v int) byte { return byte(v) }), byte(in[n/2]), uint16(n/2))
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, pivot byte, cutRaw uint16) {
		if len(raw) < 2 {
			return
		}
		in := convert(raw, func(b byte) int32 { return int32(b % 8) })
		pv, n := int32(pivot%10)-1, len(in) // -1 and 8 lie outside the alphabet
		checkHoare(t, "fuzz", in)
		checkByValue(t, "fuzz", in, pv)
		cut := int(cutRaw) % (n + 1)
		checkNeutralize(t, "fuzz", in, pv, cut, 1+int(pivot), 1+int(cutRaw>>8))
		got, want := slices.Clone(in), slices.Clone(in)
		Introsort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("Introsort differs from slices.Sort on %v", in)
		}
	})
}
