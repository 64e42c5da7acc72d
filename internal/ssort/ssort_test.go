package ssort

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/qsort"
)

// teamOptions forces team formation at test sizes: with MinPerThread 512 a
// 1<<16-element input reaches the full MaxTeam width on an 8-worker
// scheduler.
func teamOptions() Options {
	return Options{Cutoff: 256, MinPerThread: 512}
}

// sortOn runs the samplesort's root task to quiescence on s.
func sortOn(t *testing.T, s *core.Scheduler, data []int32, opt Options) {
	t.Helper()
	if err := s.Run(Root(nil, s.MaxTeam(), data, opt)); err != nil {
		t.Fatal(err)
	}
}

func checkSorted(t *testing.T, name string, got, in []int32) {
	t.Helper()
	if !qsort.IsSorted(got) {
		t.Fatalf("%s: output not sorted", name)
	}
	// Same multiset as the input: compare against the sequentially sorted copy.
	want := append([]int32(nil), in...)
	qsort.Introsort(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %d, want %d (content mismatch)", name, i, got[i], want[i])
		}
	}
}

// TestSortAllKinds is the acceptance matrix: every registered distribution,
// at team size 1 (P=1 scheduler: the sequential-oracle/fork fallback) and
// team size P (P=8 scheduler with forced team formation). The same test
// runs under -race via scripts/check.sh.
func TestSortAllKinds(t *testing.T) {
	for _, p := range []int{1, 8} {
		s := core.New(core.Options{P: p})
		defer s.Shutdown()
		for _, kind := range dist.Kinds {
			in := dist.Generate(kind, 1<<16, 42)
			data := append([]int32(nil), in...)
			sortOn(t, s, data, teamOptions())
			checkSorted(t, kind.String(), data, in)
		}
	}
}

// TestSortDefaults exercises the default options (paper-scale thresholds)
// on an input large enough to form teams.
func TestSortDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("large input")
	}
	s := core.New(core.Options{P: 8})
	defer s.Shutdown()
	in := dist.Generate(dist.Staggered, 1<<20, 1)
	data := append([]int32(nil), in...)
	sortOn(t, s, data, Options{})
	checkSorted(t, "defaults", data, in)
}

// TestSortSmall pins the degenerate sizes that skip teams entirely.
func TestSortSmall(t *testing.T) {
	s := core.New(core.Options{P: 4})
	defer s.Shutdown()
	for _, n := range []int{0, 1, 2, 3, 17, 255, 4096} {
		in := dist.Generate(dist.Random, n, uint64(n))
		data := append([]int32(nil), in...)
		sortOn(t, s, data, teamOptions())
		checkSorted(t, "small", data, in)
	}
}

// TestSortOddTeamAndRecursion drives deep bucket recursion: a tiny
// MinPerThread keeps spawning samplesort subtasks until the cutoff. The
// second half runs odd team sizes with bucket products that are not powers
// of two (3, 15, 24, rounded up to 4, 16, 32 tree leaves) on inputs dense in
// duplicate splitters.
func TestSortOddTeamAndRecursion(t *testing.T) {
	s := core.New(core.Options{P: 8})
	defer s.Shutdown()
	opt := Options{Cutoff: 64, MinPerThread: 128, BucketsPerThread: 2, Oversample: 4}
	for _, kind := range []dist.Kind{dist.Random, dist.RandDup, dist.WorstCase, dist.Zero} {
		in := dist.Generate(kind, 1<<17, 5)
		data := append([]int32(nil), in...)
		sortOn(t, s, data, opt)
		checkSorted(t, kind.String(), data, in)
	}
	// Root only forms power-of-two teams (core.BestNp); the team task itself
	// takes any width, so build the odd ones directly.
	for _, c := range []struct{ np, bpt int }{{3, 1}, {5, 3}, {6, 4}} {
		opt := Options{Cutoff: 64, MinPerThread: 128, BucketsPerThread: c.bpt, Oversample: 4}.withDefaults()
		for _, kind := range []dist.Kind{dist.RandDup, dist.Zero, dist.Staggered} {
			in := dist.Generate(kind, 1<<14, 7)
			data := append([]int32(nil), in...)
			root := newTask(new(qsort.ForkPool[int32]), -1, data, c.np, opt)
			if err := s.Run(root); err != nil {
				t.Fatal(err)
			}
			checkSorted(t, fmt.Sprintf("np=%d bpt=%d %v", c.np, c.bpt, kind), data, in)
		}
	}
}

// TestSortSeeds varies seeds so splitter selection sees many realizations.
func TestSortSeeds(t *testing.T) {
	s := core.New(core.Options{P: 8})
	defer s.Shutdown()
	for seed := uint64(0); seed < 8; seed++ {
		in := dist.Generate(dist.Gauss, 1<<15, seed)
		data := append([]int32(nil), in...)
		sortOn(t, s, data, teamOptions())
		checkSorted(t, "seeds", data, in)
	}
}

// bucketIndex is the oracle of classify: the number of splitters ≤ v by
// binary search over the sorted splitters (the samplesort's classifier
// before the implicit tree).
func bucketIndex(splitters []int32, v int32) int {
	lo, hi := 0, len(splitters)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if splitters[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestBucketIndex pins the oracle itself on hand-checked cases.
func TestBucketIndex(t *testing.T) {
	sp := []int32{10, 20, 20, 30}
	cases := []struct {
		v    int32
		want int
	}{{5, 0}, {10, 1}, {15, 1}, {20, 3}, {25, 3}, {30, 4}, {99, 4}}
	for _, c := range cases {
		if got := bucketIndex(sp, c.v); got != c.want {
			t.Fatalf("bucketIndex(%v, %d) = %d, want %d", sp, c.v, got, c.want)
		}
	}
	if got := bucketIndex([]int32{}, 7); got != 0 {
		t.Fatalf("empty splitters: bucket = %d, want 0", got)
	}
}

// treeOf lays the k−1 sorted splitters out with buildTree (the sample is
// the splitters themselves behind one element buildTree never selects).
func treeOf(splitters []int32) []int32 {
	tree := make([]int32, len(splitters)+1)
	buildTree(tree, append([]int32{math.MinInt32}, splitters...))
	return tree
}

// checkClassify holds the tree walk to the oracle at every splitter, one
// either side of it, and the extra probes.
func checkClassify(t *testing.T, name string, splitters []int32, probes ...int32) {
	t.Helper()
	tree := treeOf(splitters)
	for _, sp := range splitters {
		probes = append(probes, sp-1, sp, sp+1) // wraps at the ends: still a probe
	}
	for _, v := range probes {
		if got, want := classify(tree, v), bucketIndex(splitters, v); got != want {
			t.Fatalf("%s: classify(%d) = %d, want %d (splitters %v)", name, v, got, want, splitters)
		}
	}
}

func TestClassifyMatchesBinarySearch(t *testing.T) {
	for k := 2; k <= 256; k *= 2 {
		patterns := map[string]func(i int) int32{
			"distinct": func(i int) int32 { return int32(10 * i) },
			"equal":    func(i int) int32 { return 7 },
			"runs":     func(i int) int32 { return int32(i / 3) },
			"extremes": func(i int) int32 {
				switch i {
				case 0:
					return math.MinInt32
				case k - 2:
					return math.MaxInt32
				}
				return int32(i - k/2)
			},
		}
		for name, at := range patterns {
			splitters := make([]int32, k-1)
			for i := range splitters {
				splitters[i] = at(i)
			}
			if !slices.IsSorted(splitters) {
				t.Fatalf("k=%d %s: pattern not sorted", k, name)
			}
			checkClassify(t, fmt.Sprintf("k=%d %s", k, name), splitters)
		}
	}
	// The in-order walk of the tree is the sorted splitter sequence.
	sp := []int32{10, 20, 20, 30, 40, 50, 60}
	if tree := treeOf(sp); !slices.Equal(tree[1:], []int32{30, 20, 50, 10, 20, 40, 60}) {
		t.Fatalf("tree of %v = %v", sp, tree[1:])
	}
}

// FuzzClassify: fuzzer-chosen splitters (duplicate-dense or full-range) and
// probes through the tree walk and the binary-search oracle.
func FuzzClassify(f *testing.F) {
	f.Add(uint8(3), true, []byte{1, 2, 2, 3, 9, 9, 9}, int32(2))
	f.Add(uint8(1), false, []byte{0xff, 0xff, 0xff, 0x7f}, int32(math.MaxInt32))
	f.Add(uint8(8), true, []byte{}, int32(0))
	f.Fuzz(func(t *testing.T, levels uint8, dense bool, raw []byte, probe int32) {
		k := 2 << (levels % 8)
		splitters := make([]int32, k-1)
		for i := range splitters {
			if len(raw) == 0 {
				break
			}
			b := int32(raw[i%len(raw)])
			if dense {
				splitters[i] = b % 8
			} else {
				splitters[i] = b << 24 >> uint(i%25) // both signs, every magnitude
			}
		}
		slices.Sort(splitters)
		checkClassify(t, "fuzz", splitters, probe)
	})
}

// fuzzSched is shared across fuzz executions: scheduler spin-up dominates a
// per-execution scheduler and would throttle the fuzzer to a crawl.
var fuzzSched = sync.OnceValue(func() *core.Scheduler {
	return core.New(core.Options{P: 4})
})

// FuzzSort holds the whole sort to slices.Sort on duplicate-dense input,
// with team formation forced (teamOptions) and a fuzzer-chosen bucket
// count, from a pool whose free scratch is absent, too short or longer than
// needed.
func FuzzSort(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{3, 1, 2})
	f.Add(uint8(3), uint8(1), []byte{5, 5, 5, 5, 1, 9, 9, 0})
	f.Add(uint8(7), uint8(2), []byte{})
	f.Fuzz(func(t *testing.T, bpt, scratchRaw uint8, raw []byte) {
		s := fuzzSched()
		// Enough elements for a team of the whole scheduler at
		// MinPerThread 512: the raw bytes repeated, drawn from 16 values.
		n := 4*512 + len(raw)
		data := make([]int32, n)
		for i := range data {
			if len(raw) > 0 {
				data[i] = int32(raw[i%len(raw)]+byte(i/len(raw))) % 16
			}
		}
		want := slices.Clone(data)
		slices.Sort(want)
		opt := teamOptions()
		opt.BucketsPerThread = int(bpt % 9) // 0: the default
		fp, free := new(qsort.ForkPool[int32]), 0
		switch scratchRaw % 3 {
		case 1:
			free = n / 2
		case 2:
			free = n + 3
		}
		if free > 0 {
			fp.Return(make([]int32, free))
		}
		if err := s.Run(Root(fp, s.MaxTeam(), data, opt)); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(data, want) {
			t.Fatalf("bpt=%d free scratch=%d: output differs from slices.Sort", opt.BucketsPerThread, free)
		}
	})
}
