package msort

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/qsort"
	"repro/internal/stats"
)

func newSched(t *testing.T, p int) *core.Scheduler {
	t.Helper()
	s := core.New(core.Options{P: p})
	t.Cleanup(s.Shutdown)
	return s
}

// sortOn runs the merge sort's root task to quiescence on s.
func sortOn(t *testing.T, s *core.Scheduler, data []int32, opt Options) {
	t.Helper()
	if err := s.Run(Root(data, nil, opt)); err != nil {
		t.Fatal(err)
	}
}

func checkSorted(t *testing.T, name string, got, orig []int32) {
	t.Helper()
	if !qsort.IsSorted(got) {
		t.Fatalf("%s: output not sorted", name)
	}
	want := append([]int32(nil), orig...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %d, want %d", name, i, got[i], want[i])
		}
	}
}

func TestCoRankContract(t *testing.T) {
	f := func(ai, bi []int32, kk uint16) bool {
		a := append([]int32(nil), ai...)
		b := append([]int32(nil), bi...)
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		k := int(kk) % (len(a) + len(b) + 1)
		i, j := coRank(a, b, k)
		if i+j != k || i < 0 || i > len(a) || j < 0 || j > len(b) {
			return false
		}
		// Split validity: max(prefix) ≤ min(suffix).
		if i > 0 && j < len(b) && a[i-1] > b[j] {
			return false
		}
		if j > 0 && i < len(a) && b[j-1] > a[i] {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestCoRankEdges(t *testing.T) {
	a := []int32{1, 3, 5}
	b := []int32{2, 4, 6}
	if i, j := coRank(a, b, 0); i != 0 || j != 0 {
		t.Fatalf("k=0: (%d,%d)", i, j)
	}
	if i, j := coRank(a, b, 6); i != 3 || j != 3 {
		t.Fatalf("k=6: (%d,%d)", i, j)
	}
	// One side empty.
	if i, j := coRank(nil, b, 2); i != 0 || j != 2 {
		t.Fatalf("empty a: (%d,%d)", i, j)
	}
	if i, j := coRank(a, nil, 2); i != 2 || j != 0 {
		t.Fatalf("empty b: (%d,%d)", i, j)
	}
}

func TestMergeRangeFull(t *testing.T) {
	f := func(ai, bi []int32) bool {
		a := append([]int32(nil), ai...)
		b := append([]int32(nil), bi...)
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		out := make([]int32, len(a)+len(b))
		mergeRange(a, b, out, 0, len(out))
		return qsort.IsSorted(out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeRangeChunked(t *testing.T) {
	// Merging in independent chunks must equal the full merge.
	a := dist.Generate(dist.Random, 5000, 1)
	b := dist.Generate(dist.Random, 3000, 2)
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	full := make([]int32, len(a)+len(b))
	mergeRange(a, b, full, 0, len(full))
	chunked := make([]int32, len(full))
	for _, chunks := range []int{2, 3, 7, 16} {
		for i := range chunked {
			chunked[i] = -1
		}
		n := len(chunked)
		for c := 0; c < chunks; c++ {
			mergeRange(a, b, chunked, c*n/chunks, (c+1)*n/chunks)
		}
		for i := range full {
			if chunked[i] != full[i] {
				t.Fatalf("chunks=%d: element %d = %d, want %d", chunks, i, chunked[i], full[i])
			}
		}
	}
}

func TestSortBasic(t *testing.T) {
	s := newSched(t, 8)
	opt := Options{Cutoff: 64, MinPerThread: 1024}
	for _, n := range []int{0, 1, 2, 3, 100, 1000, 12345, 1 << 17} {
		in := dist.Generate(dist.Random, n, uint64(n)+1)
		data := append([]int32(nil), in...)
		sortOn(t, s, data, opt)
		checkSorted(t, "msort", data, in)
	}
}

func TestSortAllDistributions(t *testing.T) {
	s := newSched(t, 8)
	opt := Options{Cutoff: 512, MinPerThread: 4096}
	for _, k := range dist.Kinds {
		in := dist.Generate(k, 400_000, 5)
		data := append([]int32(nil), in...)
		sortOn(t, s, data, opt)
		checkSorted(t, k.String(), data, in)
	}
	if s.Stats()[stats.TeamTasksRun] == 0 {
		t.Fatal("no team merges happened at this size")
	}
}

func TestSortAdversarialInputs(t *testing.T) {
	s := newSched(t, 4)
	opt := Options{Cutoff: 32, MinPerThread: 256}
	inputs := map[string][]int32{
		"allEqual": make([]int32, 5000),
		"sorted":   make([]int32, 5000),
		"reverse":  make([]int32, 5000),
	}
	for i := 0; i < 5000; i++ {
		inputs["sorted"][i] = int32(i)
		inputs["reverse"][i] = int32(5000 - i)
	}
	for name, in := range inputs {
		data := append([]int32(nil), in...)
		sortOn(t, s, data, opt)
		checkSorted(t, name, data, in)
	}
}

func TestSortFullWidthTeams(t *testing.T) {
	// MinPerThread tiny → top merges use teams of MaxTeam = p. This is the
	// configuration that would deadlock with a blocking join (see package
	// doc); it must complete.
	s := newSched(t, 8)
	opt := Options{Cutoff: 128, MinPerThread: 1}
	in := dist.Generate(dist.Gauss, 200_000, 9)
	data := append([]int32(nil), in...)
	sortOn(t, s, data, opt)
	checkSorted(t, "full-width", data, in)
}

func TestSortNonPow2P(t *testing.T) {
	s := newSched(t, 6)
	opt := Options{Cutoff: 256, MinPerThread: 1024}
	in := dist.Generate(dist.Staggered, 300_000, 11)
	data := append([]int32(nil), in...)
	sortOn(t, s, data, opt)
	checkSorted(t, "p6", data, in)
}

func TestSortP1(t *testing.T) {
	s := newSched(t, 1)
	in := dist.Generate(dist.Random, 50_000, 13)
	data := append([]int32(nil), in...)
	sortOn(t, s, data, Options{})
	checkSorted(t, "p1", data, in)
}

func TestSortDefaults(t *testing.T) {
	s := newSched(t, 8)
	in := dist.Generate(dist.Random, 2_000_000, 17)
	data := append([]int32(nil), in...)
	sortOn(t, s, data, Options{})
	checkSorted(t, "defaults", data, in)
}
