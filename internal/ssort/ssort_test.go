package ssort

import (
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
	if err := s.Run(Root(s.MaxTeam(), data, opt)); err != nil {
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
// MinPerThread keeps spawning samplesort subtasks until the cutoff.
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
