package qsort

import (
	"cmp"
	"errors"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro/internal/classic"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/stats"
	"repro/internal/trace"
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
	if s.Stats()[stats.TeamsFormed] == 0 {
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
	if s.Stats()[stats.TeamTasksRun] == 0 {
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
			var ps parState[int32]
			ps.init(data, b)
			ps.phase1()
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
	var ps parState[int32]
	ps.init(data, 512)
	ps.phase1()
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

// TestParallelPartitionAllocs pins the partitioning step's allocations: a
// member's two blockScans live on its stack and are reset per acquired block,
// the cleanup works from the neutral bitmap alone, and a parState re-armed by
// init keeps its bitmap, so a reused one allocates nothing however many
// blocks it partitions.
func TestParallelPartitionAllocs(t *testing.T) {
	var ps parState[int32]
	for _, n := range []int{1 << 15, 1 << 21} {
		in := dist.Generate(dist.Random, n, 43)
		data := make([]int32, n)
		allocs := testing.AllocsPerRun(3, func() {
			copy(data, in)
			ps.init(data, DefaultBlockSize)
			ps.phase1()
			ps.cleanup()
		})
		if allocs != 0 {
			t.Errorf("n=%d (%d blocks): %.0f allocations per partition of a reused parState, want 0", n, n/DefaultBlockSize, allocs)
		}
	}
}

// TestMixedModeFanInIsTeamBarrier: the partitioning step's fan-in is the
// team's barrier, so every width-2 execution on every worker's ring holds a
// barrier enter/leave pair of the same task, and the wait is one the trace,
// DumpState and the Parks counter see.
func TestMixedModeFanInIsTeamBarrier(t *testing.T) {
	s := coreSched(t, 2)
	opt := MMOptions{Cutoff: 64, BlockSize: 64, MinBlocksPerThread: 4}
	in := dist.Generate(dist.Random, 1<<15, 47)
	data := append([]int32(nil), in...)
	s.StartTrace()
	run(t, s, MixedModeRoot(nil, s.MaxTeam(), data, opt))
	s.StopTrace()
	checkSorted(t, "traced", data, in)

	snap := s.TraceSnapshot()
	rings := make([][]trace.Event, len(snap.Names))
	for _, e := range snap.Events {
		rings[e.Ring] = append(rings[e.Ring], e)
	}
	teams := 0
	for ri, evs := range rings {
		slices.SortFunc(evs, func(a, b trace.Event) int { return cmp.Compare(a.Seq, b.Seq) })
		var start *trace.Event // the width-2 execution being scanned
		var entered, left bool
		for i := range evs {
			e := &evs[i]
			switch {
			case e.Kind == trace.EvStart && e.X == 2:
				start, entered, left = e, false, false
			case start == nil || e.Arg != start.Arg:
			case e.Kind == trace.EvBarrierEnter:
				entered = true
			case e.Kind == trace.EvBarrierLeave:
				left = entered
			case e.Kind == trace.EvDone:
				if !left {
					t.Errorf("%s: width-2 execution of task %x (seq %d–%d) holds no barrier enter/leave pair",
						snap.Names[ri], start.Arg, start.Seq, e.Seq)
				}
				teams++
				start = nil
			}
		}
	}
	if teams == 0 {
		t.Fatal("no width-2 execution traced: the options should form teams on P = 2")
	}
}

// TestMixedModeTeamTasksArePooled: a warmed mixed-mode sort draws its team
// tasks, each with its block claimer and neutral bitmap,
// from its ForkPool, so the sort's team-task code allocates nothing once
// warm. The test counts only those allocations (teamTaskAllocs): every
// allocation of the measured sorts is sampled into the memory profile and
// attributed to its allocating function. What the scheduler allocates (a
// record per team execution, node-pool refills), what the Go runtime does
// (sudog refills for a parked worker's select) and sync.Pool's own chain
// growth vary from run to run and are not the sort's. A pool can still
// miss, since sync.Pool keeps one item per P that other Ps cannot take, so
// ten warmed sorts may allocate 4 times in all; an unpooled team task
// allocates twice per team formed. The collector, which empties the pools,
// is off meanwhile.
func TestMixedModeTeamTasksArePooled(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops tasks at random under the race detector")
	}
	s := coreSched(t, 2)
	g := s.NewGroup()
	var fp ForkPool[int32]
	in := dist.Generate(dist.Random, 1<<20, 47)
	data := make([]int32, len(in))
	sortOnce := func() {
		copy(data, in)
		if err := g.Run(MixedModeRoot(&fp, s.MaxTeam(), data, MMOptions{})); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	// The profile publishes what was allocated before the last collection,
	// and a collection empties the pools, so the one that opens the
	// measurement runs before the warm-up, which samples nothing. A change
	// of rate still samples the next allocation on each P: the first sort
	// makes those, before the collection.
	runtime.MemProfileRate = 0
	sortOnce()
	runtime.GC()
	before := teamTaskAllocs()
	for i := 0; i < 10; i++ {
		sortOnce() // warm
	}
	teams := s.Stats()[stats.TeamsFormed]
	runtime.MemProfileRate = 1
	for i := 0; i < 10; i++ {
		sortOnce()
	}
	formed := s.Stats()[stats.TeamsFormed] - teams
	runtime.GC()
	if formed == 0 {
		t.Fatal("ten 2^20-element mixed-mode sorts formed no team")
	}
	if n := teamTaskAllocs() - before; n > 4 {
		t.Errorf("ten warmed sorts, %d teams formed, allocated %d times in the team-task code, want at most 4", formed, n)
	}
	if !IsSorted(data) {
		t.Fatal("not sorted")
	}
}

// teamTaskAllocs returns the number of allocations the memory profile
// attributes to the sort's team-task code: those whose first frame outside
// the runtime is a function of this package, outside its tests and other
// than ForkPool.task. The fork-join fallbacks, thousands per sort, draw
// their tasks there and miss the pool now and then; TestForkTasksArePooled
// holds those, per request.
func teamTaskAllocs() int64 {
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	var total int64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		f, more := frames.Next()
		for more && strings.HasPrefix(f.Function, "runtime.") {
			f, more = frames.Next()
		}
		if strings.HasPrefix(f.Function, "repro/internal/qsort.") && !strings.HasSuffix(f.File, "_test.go") &&
			f.Function != "repro/internal/qsort.(*ForkPool[...]).task" {
			total += r.AllocObjects
		}
	}
	return total
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
