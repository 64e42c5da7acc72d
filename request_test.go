package repro

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/freelist"
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
// request itself, TestRequestAllocsAcrossGC the same across collections.
func TestForkTasksArePooled(t *testing.T) {
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

// TestRequestAllocsAcrossGC: a warmed request that follows two collections
// allocates as often at 2^18 elements as at 2^16 — what a collection
// empties would be refilled per task or per team, and a larger sort runs
// more of both. Every free list of the request path keeps what it is given,
// so what is counted is the same at both sizes: the collections' own
// allocations and the Go runtime's (a parked worker's sudog, whose central
// cache each collection clears). The warm-up runs the larger sort until
// every worker's stacks have once been full: objects idle on one worker's
// stack while another allocates, up to freelist.StackCap of each kind.
func TestRequestAllocsAcrossGC(t *testing.T) {
	rt := NewRuntime[int32](Options{P: 2})
	defer rt.Close()
	const small, large = 1 << 16, 1 << 18
	in := GenerateInput(Random, large, 7)
	data := make([]int32, large)
	for _, c := range []struct {
		name string
		sort func([]int32)
	}{
		{"SortMixedMode", func(d []int32) { rt.SortMixedMode(d, MMOptions{}) }},
		{"SortSamplesort", func(d []int32) { rt.SortSamplesort(d, SSOptions{}) }},
	} {
		for range 100 {
			copy(data, in)
			c.sort(data)
		}
		var got [2]float64
		for i, n := range []int{small, large} {
			got[i] = testing.AllocsPerRun(20, func() {
				runtime.GC()
				runtime.GC()
				copy(data, in[:n])
				c.sort(data[:n])
			})
			if !slices.IsSorted(data[:n]) {
				t.Fatalf("%s of %d elements: output not sorted", c.name, n)
			}
		}
		if got[0] != got[1] {
			t.Errorf("%s after two collections: %v allocations per request at %d elements, %v at %d; want the same",
				c.name, got[0], small, got[1], large)
		}
		t.Logf("%s after two collections: %v and %v allocations per request", c.name, got[0], got[1])
	}
}

// TestRequestZeroAlloc: a warmed request allocates nothing. Its quiescence
// group comes from the Runtime's free list of drained groups (and keeps its
// inject queue's backing array), Wait parks on the group's condition
// variable rather than on a channel made per wait, the root task and its
// fork-join spawns come from the ForkPool, and a Background context starts
// no watcher. The root's scheduler node comes from the stack of the worker
// that takes it. Every free list keeps what it is given (internal/freelist),
// so a warmed Runtime refills nothing, but its per-worker stacks may still
// grow: a worker allocates only when its own stack and the shared level are
// empty, so at most freelist.StackCap idle objects of a kind sit on the
// other worker's stack. A request draws on at most three kinds that move
// between workers (nodes and two of the sorts' task kinds), so counted over
// more than 3·StackCap runs AllocsPerRun's quotient rounds that slack away,
// and an allocation per request does not.
//
// The analytics methods run an Op from the Runtime's free list, and RunPlan
// its plan's own Ops. At 4096 elements every one runs solo, at 16384, the
// smallest input core.BestNp gives a team of two, as team tasks, whose
// coordinator publishes them in its own record: at both sizes they allocate
// nothing but GroupBy's and Aggregate's fresh result.
func TestRequestZeroAlloc(t *testing.T) {
	reps := 1000
	if raceEnabled {
		reps = 4 * freelist.StackCap // still above the slack; the instrumented sorts are slow
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
			allocs := testing.AllocsPerRun(reps, func() { copy(data, in[:n]); sort(data[:n]) })
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
		{"Filter", 0, 0, func(n int) { rt.Filter(src[:n], out, func(v int32) bool { return v&1 == 0 }) }},
		{"GroupBy", 1, 1, func(n int) { rt.GroupBy(src[:n], out, 8, key) }},
		{"Aggregate", 1, 1, func(n int) { rt.Aggregate(src[:n], 8, key, 0, lift, comb) }},
		{"TopK", 0, 0, func(n int) { rt.TopK(src[:n], out, 16) }},
		{"MergeJoin", 0, 0, func(n int) { rt.MergeJoin(srt[:n], srt[:n], runs) }},
		{"RunPlan", 0, 0, func(n int) { rt.RunPlan(plan, src[:n]) }},
	} {
		for n, want := range map[int]float64{4096: c.solo, big: c.team} {
			c.call(n) // warm: the pooled Op builds its state
			if allocs := testing.AllocsPerRun(reps, func() { c.call(n) }); allocs != want {
				t.Errorf("%s of %d elements: %v allocations per warmed request, want %v", c.name, n, allocs, want)
			}
		}
	}

	// The samplesort of big elements runs the in-place quicksort (width 1);
	// of 4·big it is one team task of two, whose step draws its task, state
	// and scratch from the ForkPool. SortJoin's two width-1 samplesorts feed
	// a width-2 MergeJoin. A batch
	// of one fork-join request allocates its roots slice, nothing else: the
	// group's inject queue takes the batch's tasks as they are.
	wide := GenerateInput(Random, 4*big, 5)
	buf, other := make([]int32, 4*big), make([]int32, big)
	reqs := []SortRequest[int32]{{Data: data, Algo: AlgoForkJoin}}
	for _, c := range []struct {
		name string
		n    int
		want float64
		call func()
	}{
		{"SortSamplesort", big, 0, func() { copy(buf, wide[:big]); rt.SortSamplesort(buf[:big], SSOptions{}) }},
		{"SortSamplesort", 4 * big, 0, func() { copy(buf, wide); rt.SortSamplesort(buf, SSOptions{}) }},
		{"SortJoin", big, 0, func() { copy(buf, src); copy(other, wide); rt.SortJoin(buf[:big], other, runs, SSOptions{}) }},
		{"SortManyCtx", len(in), 1, func() { copy(data, in); rt.SortManyCtx(context.Background(), reqs, BatchOptions{}) }},
	} {
		c.call() // warm
		if allocs := testing.AllocsPerRun(reps, c.call); allocs != c.want {
			t.Errorf("%s of %d elements: %v allocations per warmed request, want %v", c.name, c.n, allocs, c.want)
		}
	}
}
