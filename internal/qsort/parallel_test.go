package qsort

import (
	"errors"
	"testing"

	"repro/internal/classic"
	"repro/internal/core"
	"repro/internal/dist"
)

func coreSched(t *testing.T, p int) *core.Scheduler {
	t.Helper()
	s := core.New(core.Options{P: p})
	t.Cleanup(s.Shutdown)
	return s
}

// run runs a sort's root task to quiescence on s.
func run(t testing.TB, s *core.Scheduler, root core.Task) {
	t.Helper()
	if err := s.Run(root); err != nil {
		t.Fatal(err)
	}
}

func TestForkJoinCore(t *testing.T) {
	s := coreSched(t, 8)
	for name, in := range testInputs() {
		data := append([]int32(nil), in...)
		run(t, s, ForkJoinRoot(nil, data, DefaultCutoff))
		checkSorted(t, name, data, in)
	}
}

func TestForkJoinCoreSmallCutoff(t *testing.T) {
	// A tiny cutoff exercises deep task recursion and heavy stealing.
	s := coreSched(t, 8)
	in := dist.Generate(dist.Random, 100000, 11)
	data := append([]int32(nil), in...)
	run(t, s, ForkJoinRoot(nil, data, 16))
	checkSorted(t, "small-cutoff", data, in)
}

// TestForkJoinClassic covers the Randfork (steal-half) and Cilk (steal-one)
// columns: one sort function, two steal policies.
func TestForkJoinClassic(t *testing.T) {
	for _, policy := range []classic.Policy{classic.StealHalf, classic.StealOne} {
		s := classic.New(classic.Options{P: 8, Policy: policy})
		t.Cleanup(s.Shutdown)
		for name, in := range testInputs() {
			data := append([]int32(nil), in...)
			ForkJoinClassic(s, data, DefaultCutoff)
			checkSorted(t, name, data, in)
		}
	}
}

func TestSampleCilk(t *testing.T) {
	s := classic.New(classic.Options{P: 8, Policy: classic.StealOne})
	t.Cleanup(s.Shutdown)
	for name, in := range testInputs() {
		data := append([]int32(nil), in...)
		SampleCilk(s, data, DefaultCutoff)
		checkSorted(t, name, data, in)
	}
}

func TestMixedMode(t *testing.T) {
	s := coreSched(t, 8)
	// Force team formation with a small block size and min-blocks so even
	// modest inputs use multi-thread partitioning.
	opt := MMOptions{Cutoff: 512, BlockSize: 256, MinBlocksPerThread: 4}
	for name, in := range testInputs() {
		data := append([]int32(nil), in...)
		run(t, s, MixedModeRoot(nil, s.MaxTeam(), data, opt))
		checkSorted(t, name, data, in)
	}
	if s.Stats().TeamsFormed == 0 {
		t.Fatal("mixed-mode sort never formed a team")
	}
}

func TestMixedModeDefaults(t *testing.T) {
	s := coreSched(t, 8)
	in := dist.Generate(dist.Random, 3_000_000, 13)
	data := append([]int32(nil), in...)
	run(t, s, MixedModeRoot(nil, s.MaxTeam(), data, MMOptions{}))
	if !IsSorted(data) {
		t.Fatal("not sorted")
	}
	// 3M elements / 4096 / 128 ⇒ getBestNp should pick np > 1 at the top.
	if s.Stats().TeamTasksRun == 0 {
		t.Fatal("default options on 3M elements should use a team partition")
	}
}

func TestMixedModeSizesAndTails(t *testing.T) {
	s := coreSched(t, 4)
	opt := MMOptions{Cutoff: 64, BlockSize: 128, MinBlocksPerThread: 2}
	// Sizes hitting exact block multiples, off-by-one tails, and sub-block.
	for _, n := range []int{1, 2, 100, 127, 128, 129, 1024, 1025, 4095, 4096, 4097, 65536, 65537} {
		in := dist.Generate(dist.Random, n, uint64(n))
		data := append([]int32(nil), in...)
		run(t, s, MixedModeRoot(nil, s.MaxTeam(), data, opt))
		checkSorted(t, "size", data, in)
	}
}

func TestMixedModeAllDistributions(t *testing.T) {
	s := coreSched(t, 8)
	opt := MMOptions{Cutoff: 512, BlockSize: 512, MinBlocksPerThread: 8}
	for _, k := range dist.Kinds {
		in := dist.Generate(k, 500_000, 17)
		data := append([]int32(nil), in...)
		run(t, s, MixedModeRoot(nil, s.MaxTeam(), data, opt))
		checkSorted(t, k.String(), data, in)
	}
}

func TestMixedModeNonPow2P(t *testing.T) {
	s := coreSched(t, 6) // MaxTeam = 4
	opt := MMOptions{Cutoff: 128, BlockSize: 128, MinBlocksPerThread: 2}
	in := dist.Generate(dist.Random, 200_000, 23)
	data := append([]int32(nil), in...)
	run(t, s, MixedModeRoot(nil, s.MaxTeam(), data, opt))
	checkSorted(t, "p6", data, in)
}

func TestMixedModeP1(t *testing.T) {
	s := coreSched(t, 1)
	in := dist.Generate(dist.Random, 10_000, 29)
	data := append([]int32(nil), in...)
	run(t, s, MixedModeRoot(nil, s.MaxTeam(), data, MMOptions{}))
	checkSorted(t, "p1", data, in)
}

func TestMixedModeRandomizedScheduler(t *testing.T) {
	s := core.New(core.Options{P: 8, Randomized: true, Seed: 5})
	t.Cleanup(s.Shutdown)
	opt := MMOptions{Cutoff: 256, BlockSize: 256, MinBlocksPerThread: 4}
	in := dist.Generate(dist.Staggered, 300_000, 31)
	data := append([]int32(nil), in...)
	run(t, s, MixedModeRoot(nil, s.MaxTeam(), data, opt))
	checkSorted(t, "randomized", data, in)
}

// TestParallelPartitionDirect exercises parState in isolation on a single
// team-free "team" of one, validating the cleanup paths (remnants, tails,
// compaction) deterministically.
func TestParallelPartitionDirect(t *testing.T) {
	for _, n := range []int{1, 5, 127, 128, 300, 1000, 4096, 10000} {
		for _, b := range []int{16, 128, 4096} {
			in := dist.Generate(dist.Random, n, uint64(n*b))
			data := append([]int32(nil), in...)
			ps := newParState(data, 1, b)
			ps.phase1()
			ps.fanin.WaitZero()
			split := ps.cleanup()
			if split < 0 || split > n {
				t.Fatalf("n=%d b=%d: split=%d out of range", n, b, split)
			}
			for i := 0; i < split; i++ {
				if data[i] > ps.pv {
					t.Fatalf("n=%d b=%d: data[%d]=%d > pivot %d", n, b, i, data[i], ps.pv)
				}
			}
			for i := split; i < n; i++ {
				if data[i] < ps.pv {
					t.Fatalf("n=%d b=%d: data[%d]=%d < pivot %d", n, b, i, data[i], ps.pv)
				}
			}
		}
	}
}

func TestParallelPartitionPreservesMultiset(t *testing.T) {
	in := dist.Generate(dist.Gauss, 50000, 41)
	data := append([]int32(nil), in...)
	ps := newParState(data, 1, 512)
	ps.phase1()
	ps.fanin.WaitZero()
	ps.cleanup()
	counts := map[int32]int{}
	for _, v := range in {
		counts[v]++
	}
	for _, v := range data {
		counts[v]--
	}
	for v, c := range counts {
		if c != 0 {
			t.Fatalf("value %d count off by %d", v, c)
		}
	}
}

// TestParallelPartitionAllocs pins the partitioning step's allocations to
// its fixed state (parState, claimer, fan-in counter, neutral bitmap, the
// cleanup's remnant lists): a member's two blockScans live on its stack and
// are reset per acquired block, so the count does not grow with the number of
// blocks.
func TestParallelPartitionAllocs(t *testing.T) {
	for _, n := range []int{1 << 15, 1 << 21} {
		in := dist.Generate(dist.Random, n, 43)
		data := make([]int32, n)
		allocs := testing.AllocsPerRun(3, func() {
			copy(data, in)
			ps := newParState(data, 1, DefaultBlockSize)
			ps.phase1()
			ps.fanin.WaitZero()
			ps.cleanup()
		})
		if allocs > 8 {
			t.Errorf("n=%d (%d blocks): %.0f allocations per partition, want ≤ 8", n, n/DefaultBlockSize, allocs)
		}
	}
}

// TestRootOnShutDownSchedulerReportsErrShutdown: running a root reports the
// refusal a sort entry point must not swallow, and leaves the data alone.
func TestRootOnShutDownSchedulerReportsErrShutdown(t *testing.T) {
	s := core.New(core.Options{P: 2})
	s.Shutdown()
	in := dist.Generate(dist.Random, 10_000, 37)
	data := append([]int32(nil), in...)
	for name, root := range map[string]core.Task{
		"MixedModeRoot": MixedModeRoot(nil, s.MaxTeam(), data, MMOptions{}),
		"ForkJoinRoot":  ForkJoinRoot(nil, data, DefaultCutoff),
	} {
		if err := s.Run(root); !errors.Is(err, core.ErrShutdown) {
			t.Errorf("Run(%s) on a shut-down scheduler = %v, want ErrShutdown", name, err)
		}
	}
	for i := range in {
		if data[i] != in[i] {
			t.Fatalf("refused sort modified data[%d]", i)
		}
	}
}
