package repro

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// requestCase is one public Runtime request method: the family it is
// accounted in, how many requests one call carries, and the call.
type requestCase struct {
	name string
	f    family
	n    uint64
	call func(rt *Runtime[int32], ctx context.Context) error
}

// requestCases covers all 13 request methods. Inputs are built per call, so
// the sorts always have something to do.
func requestCases() []requestCase {
	const n = 4096
	input := func() []int32 { return GenerateInput(Random, n, 3) }
	sorted := func() []int32 {
		d := input()
		SortSequential(d)
		return d
	}
	batch := func() []SortRequest[int32] {
		// The empty request has no root task and is not accounted.
		return []SortRequest[int32]{
			{Data: input(), Algo: AlgoSamplesort},
			{Data: nil, Algo: AlgoSamplesort},
			{Data: input(), Algo: AlgoSamplesort},
		}
	}
	key := func(v int32) int { return int(uint32(v)) % 8 }
	lift := func(a int64, v int32) int64 { return a + int64(v) }
	comb := func(a, b int64) int64 { return a + b }
	runs := make([]JoinRun[int32], n)
	return []requestCase{
		{"SortMixedMode", family(AlgoMixedMode), 1, func(rt *Runtime[int32], _ context.Context) error {
			rt.SortMixedMode(input(), MMOptions{})
			return nil
		}},
		{"SortForkJoin", family(AlgoForkJoin), 1, func(rt *Runtime[int32], _ context.Context) error {
			rt.SortForkJoin(input())
			return nil
		}},
		{"SortSamplesort", family(AlgoSamplesort), 1, func(rt *Runtime[int32], _ context.Context) error {
			rt.SortSamplesort(input(), SSOptions{})
			return nil
		}},
		{"SortMergeMixedMode", family(AlgoMergeMixedMode), 1, func(rt *Runtime[int32], _ context.Context) error {
			rt.SortMergeMixedMode(input(), MSOptions{})
			return nil
		}},
		{"SortMany", family(AlgoSamplesort), 2, func(rt *Runtime[int32], _ context.Context) error {
			rt.SortMany(batch(), BatchOptions{})
			return nil
		}},
		{"SortManyCtx", family(AlgoSamplesort), 2, func(rt *Runtime[int32], ctx context.Context) error {
			return rt.SortManyCtx(ctx, batch(), BatchOptions{})
		}},
		{"Filter", famFilter, 1, func(rt *Runtime[int32], _ context.Context) error {
			rt.Filter(input(), make([]int32, n), func(v int32) bool { return v&1 == 0 })
			return nil
		}},
		{"GroupBy", famGroupBy, 1, func(rt *Runtime[int32], _ context.Context) error {
			rt.GroupBy(input(), make([]int32, n), 8, key)
			return nil
		}},
		{"Aggregate", famAggregate, 1, func(rt *Runtime[int32], _ context.Context) error {
			rt.Aggregate(input(), 8, key, 0, lift, comb)
			return nil
		}},
		{"TopK", famTopK, 1, func(rt *Runtime[int32], _ context.Context) error {
			rt.TopK(input(), make([]int32, 16), 16)
			return nil
		}},
		{"MergeJoin", famJoin, 1, func(rt *Runtime[int32], _ context.Context) error {
			rt.MergeJoin(sorted(), sorted(), runs)
			return nil
		}},
		{"SortJoin", famJoin, 1, func(rt *Runtime[int32], _ context.Context) error {
			rt.SortJoin(input(), input(), runs, SSOptions{})
			return nil
		}},
		{"RunPlan", famPlan, 1, func(rt *Runtime[int32], _ context.Context) error {
			plan := rt.NewPlan(n).Filter(func(v int32) bool { return v >= 0 }).TopK(8)
			rt.RunPlan(plan, input())
			return nil
		}},
	}
}

// observed returns the per-family observation counts and fails the test if
// any family's in-flight gauge is not back at zero.
func observed(t *testing.T, rt *Runtime[int32], when string) (c [numFamilies]uint64) {
	t.Helper()
	rt.m.init(rt.P())
	for f := range c {
		c[f] = rt.m.hist[f].Snapshot().Count
		if v := rt.m.inflight[f].Load(); v != 0 {
			t.Errorf("%s: in-flight gauge of %q = %d, want 0", when, familyNames[f], v)
		}
	}
	return c
}

// checkRequests calls every request method once under ctx and checks the
// single request path's accounting: tc.n new observations in tc.f's
// histogram and none elsewhere, every in-flight gauge back at zero, and the
// error wantErr wants from the one method that reports one. A method that
// hangs fails the test's deadline rather than the assertion.
func checkRequests(t *testing.T, rt *Runtime[int32], ctx context.Context, wantErr error) {
	for _, tc := range requestCases() {
		before := observed(t, rt, tc.name+" (before)")
		done := make(chan error, 1)
		go func() { done <- tc.call(rt, ctx) }()
		select {
		case err := <-done:
			if tc.name == "SortManyCtx" && !errors.Is(err, wantErr) {
				t.Errorf("%s: err = %v, want %v", tc.name, err, wantErr)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: no return", tc.name)
		}
		after := observed(t, rt, tc.name)
		for f := range after {
			want := before[f]
			if family(f) == tc.f {
				want += tc.n
			}
			if after[f] != want {
				t.Errorf("%s: %q histogram count %d -> %d, want %d",
					tc.name, familyNames[f], before[f], after[f], want)
			}
		}
	}
}

func TestRequestPathLive(t *testing.T) {
	rt := NewRuntime[int32](Options{P: 2})
	defer rt.Close()
	checkRequests(t, rt, context.Background(), nil)
}

func TestRequestPathCanceledContext(t *testing.T) {
	rt := NewRuntime[int32](Options{P: 2})
	defer rt.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	checkRequests(t, rt, ctx, ErrCanceled)
}

// TestRequestPathAfterClose also pins Close's "results zero" for the
// analytics methods: on a warmed Runtime their pooled Ops still hold the
// last live request's results, which a refused request must not return.
// sync.Pool keeps an item per P that callers on other Ps cannot take, so
// the analytics run from several clients at once, before and after Close,
// and the refused requests meet warm Ops whichever P they run on.
func TestRequestPathAfterClose(t *testing.T) {
	rt := NewRuntime[int32](Options{P: 2})
	const n, nb, clients = 1 << 14, 8, 8
	src := GenerateInput(Random, n, 3)
	srt := slices.Sorted(slices.Values(src))
	key := func(v int32) int { return int(uint32(v)) % nb }
	count := func(a int64, _ int32) int64 { return a + 1 }
	comb := func(a, b int64) int64 { return a + b }
	// analytics runs every analytics method from each client and fails the
	// test unless each result is zero exactly when zero is true.
	analytics := func(zero bool) {
		var wg sync.WaitGroup
		for range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out, runs := make([]int32, n), make([]JoinRun[int32], n)
				counts := []int{ // an Op's count is its last run's, so the counting operators go last
					slices.Max(rt.GroupBy(src, out, nb, key)),
					int(slices.Min(rt.Aggregate(src, nb, key, 0, count, comb))),
					rt.Filter(src, out, func(v int32) bool { return v&1 == 0 }),
					rt.TopK(src, out, 16),
					rt.MergeJoin(srt, srt, runs),
				}
				if slices.Contains(counts, 0) != zero || zero && slices.Max(counts) != 0 {
					t.Errorf("max GroupBy start, min Aggregate total, Filter, TopK, MergeJoin = %v (closed: %v)", counts, zero)
				}
			}()
		}
		wg.Wait()
	}
	analytics(false)
	rt.Close()
	analytics(true)
	checkRequests(t, rt, context.Background(), ErrShutdown)
}

// TestSamplesortScratchIsPooled: a warmed Runtime sorts through pooled
// scratch — a 2^16-element SortSamplesort (one two-member team step, 256 KiB
// of scratch) allocates no buffer per call, even with two collections
// between calls: the scratch free list of the Runtime's ForkPool is no
// sync.Pool, so no GC empties it and every P reaches it. Then 8 clients sort
// concurrently: a team step holds its scratch from its sample to its
// copy-back only, and a team takes two of the two workers, so the list ends
// up holding one buffer, however many requests were in flight.
func TestSamplesortScratchIsPooled(t *testing.T) {
	rt := NewRuntime[int32](Options{P: 2})
	defer rt.Close()
	const n, calls = 1 << 16, 20
	in := GenerateInput(Random, n, 3)
	data := make([]int32, n)
	sortOnce := func() uint64 {
		var before, after runtime.MemStats
		copy(data, in)
		runtime.ReadMemStats(&before)
		rt.SortSamplesort(data, SSOptions{})
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	sortOnce() // warm: the list's first buffer
	for i := 0; i < calls; i++ {
		runtime.GC()
		runtime.GC()
		if b := sortOnce(); b >= 16<<10 {
			t.Fatalf("call %d of %d on a warmed Runtime allocated %d bytes, want no buffer (< 16 KiB)", i, calls, b)
		}
	}
	if !slices.IsSorted(data) {
		t.Fatal("output not sorted")
	}

	const clients, each = 8, 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := make([]int32, n)
			for i := 0; i < each; i++ {
				copy(d, in)
				rt.SortSamplesort(d, SSOptions{})
				if !slices.IsSorted(d) {
					t.Error("concurrent SortSamplesort: output not sorted")
				}
			}
		}()
	}
	wg.Wait()
	if got, bound := rt.forks.FreeBuffers(), rt.P()/2; got > bound {
		t.Fatalf("after %d concurrent clients the scratch free list holds %d buffers, want at most P/2 = %d", clients, got, bound)
	}
}

// TestForkTasksArePooled: the Runtime's one qsort.ForkPool serves every
// request, so a warmed quicksort of 4096 elements — a dozen spawned tasks —
// allocates no more than a two-element one does (when every root built its
// own pool, 12 allocations against 4). TestRequestZeroAlloc pins the
// request itself. Counted over 1000 runs, like there, so that the at most
// 2 × 256 node refills of the fresh scheduler's workers round away whatever
// the process-wide node pool kept from earlier tests (a collection empties
// it).
func TestForkTasksArePooled(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops tasks at random under the race detector")
	}
	rt := NewRuntime[int32](Options{P: 2})
	defer rt.Close()
	in := GenerateInput(Random, 4096, 3)
	data := make([]int32, len(in))
	for name, sort := range map[string]func([]int32){
		"fork":  rt.SortForkJoin,
		"mixed": func(d []int32) { rt.SortMixedMode(d, MMOptions{}) },
		"ssort": func(d []int32) { rt.SortSamplesort(d, SSOptions{}) },
	} {
		request := testing.AllocsPerRun(1000, func() { copy(data, in[:2]); sort(data[:2]) })
		sorted := testing.AllocsPerRun(1000, func() { copy(data, in); sort(data) })
		if sorted > request || !slices.IsSorted(data) {
			t.Errorf("%s: %v allocations per warmed 4096-element request, %v per two-element one (sorted: %v)",
				name, sorted, request, slices.IsSorted(data))
		}
	}
}

// TestRequestZeroAlloc: a warmed request allocates nothing. Its quiescence
// group comes from the Runtime's pool of drained groups (and keeps its
// inject queue's backing array), Wait parks on the group's condition
// variable rather than on a channel made per wait, the root task and its
// fork-join spawns come from the ForkPool, and a Background context starts
// no watcher. The root's scheduler node comes from a shared pool that a
// worker refills only once its own free list is full (256 nodes): a worker
// that has run few requests yet keeps up to that many nodes before it gives
// any back. AllocsPerRun divides the count by the runs, so with 1000 runs
// per case those at most 2 × 256 refills round away, as does a rare pool
// miss (sync.Pool keeps one item per P that a caller on another P cannot
// take); a per-request allocation does not.
//
// The analytics methods run an Op from the Runtime's pool, and RunPlan its
// plan's own Ops. At 4096 elements every one runs solo and allocates
// nothing but GroupBy's and Aggregate's fresh result. At 16384, the
// smallest input core.BestNp gives a team of two, each team task adds the
// one allocation left on the request path: the scheduler's teamExec, built
// per team execution (coordinate.go).
func TestRequestZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops groups and tasks at random under the race detector")
	}
	rt := NewRuntime[int32](Options{P: 2})
	defer rt.Close()
	in := GenerateInput(Random, 4096, 3)
	data := make([]int32, len(in))
	for _, n := range []int{2, 256, 4096} {
		for name, sort := range map[string]func([]int32){
			"SortForkJoin":  rt.SortForkJoin,
			"SortMixedMode": func(d []int32) { rt.SortMixedMode(d, MMOptions{}) },
		} {
			allocs := testing.AllocsPerRun(1000, func() { copy(data, in[:n]); sort(data[:n]) })
			if allocs != 0 || !slices.IsSorted(data[:n]) {
				t.Errorf("%s of %d elements: %v allocations per warmed request, want 0 (sorted: %v)",
					name, n, allocs, slices.IsSorted(data[:n]))
			}
		}
	}

	const big = 1 << 14
	src := GenerateInput(Random, big, 3)
	srt := slices.Sorted(slices.Values(src))
	out := make([]int32, big)
	runs := make([]JoinRun[int32], big)
	key := func(v int32) int { return int(uint32(v)) % 8 }
	lift := func(a int64, v int32) int64 { return a + int64(v) }
	comb := func(a, b int64) int64 { return a + b }
	plan := rt.NewPlan(big).Filter(func(int32) bool { return true }).TopK(16) // two stages
	for _, c := range []struct {
		name       string
		solo, team float64 // allocations per request at 4096 and at big elements
		call       func(n int)
	}{
		{"Filter", 0, 1, func(n int) { rt.Filter(src[:n], out, func(v int32) bool { return v&1 == 0 }) }},
		{"GroupBy", 1, 2, func(n int) { rt.GroupBy(src[:n], out, 8, key) }},
		{"Aggregate", 1, 2, func(n int) { rt.Aggregate(src[:n], 8, key, 0, lift, comb) }},
		{"TopK", 0, 1, func(n int) { rt.TopK(src[:n], out, 16) }},
		{"MergeJoin", 0, 1, func(n int) { rt.MergeJoin(srt[:n], srt[:n], runs) }},
		{"RunPlan", 0, 2, func(n int) { rt.RunPlan(plan, src[:n]) }},
	} {
		for n, want := range map[int]float64{4096: c.solo, big: c.team} {
			c.call(n) // warm: the pooled Op builds its state
			if allocs := testing.AllocsPerRun(1000, func() { c.call(n) }); allocs != want {
				t.Errorf("%s of %d elements: %v allocations per warmed request, want %v", c.name, n, allocs, want)
			}
		}
	}

	// The samplesort of big elements runs the in-place quicksort (width 1);
	// of 4·big it is one team task of two, whose step draws its task, state
	// and scratch from the ForkPool, so what is left is the teamExec.
	// SortJoin's two width-1 samplesorts feed a width-2 MergeJoin.
	wide := GenerateInput(Random, 4*big, 5)
	buf, other := make([]int32, 4*big), make([]int32, big)
	for _, c := range []struct {
		name string
		n    int
		want float64
		call func()
	}{
		{"SortSamplesort", big, 0, func() { copy(buf, wide[:big]); rt.SortSamplesort(buf[:big], SSOptions{}) }},
		{"SortSamplesort", 4 * big, 1, func() { copy(buf, wide); rt.SortSamplesort(buf, SSOptions{}) }},
		{"SortJoin", big, 1, func() { copy(buf, src); copy(other, wide); rt.SortJoin(buf[:big], other, runs, SSOptions{}) }},
	} {
		c.call() // warm
		if allocs := testing.AllocsPerRun(1000, c.call); allocs != c.want {
			t.Errorf("%s of %d elements: %v allocations per warmed request, want %v", c.name, c.n, allocs, c.want)
		}
	}
}
