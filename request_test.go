package repro

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"slices"
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

func TestRequestPathAfterClose(t *testing.T) {
	rt := NewRuntime[int32](Options{P: 2})
	rt.Close()
	checkRequests(t, rt, context.Background(), ErrShutdown)
}

// TestSamplesortScratchIsPooled: a warmed Runtime sorts through pooled
// scratch — a 2^16-element SortSamplesort (one two-member team phase, 256
// KiB of scratch) allocates a few KiB of task state per call, not a buffer
// (260 KiB before the pool). Counted call by call, because sync.Pool keeps
// one item per P where no other P finds it: a caller that has moved to
// another P may miss once per other P, and the buffer it then allocates
// stays pooled too. The collector, which empties the pool, is off meanwhile.
func TestSamplesortScratchIsPooled(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
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
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	sortOnce() // warm: the pool's first buffer
	fresh, worst := 0, uint64(0)
	for i := 0; i < calls; i++ {
		if b := sortOnce(); b >= 16<<10 {
			fresh++
			worst = max(worst, b)
		}
	}
	if !slices.IsSorted(data) {
		t.Fatal("output not sorted")
	}
	if fresh > min(runtime.GOMAXPROCS(0)-1, calls/4) {
		t.Fatalf("%d of %d SortSamplesort calls on a warmed Runtime allocated 16 KiB or more (up to %d bytes)", fresh, calls, worst)
	}
}

// TestForkTasksArePooled: the Runtime's one qsort.ForkPool serves every
// request, so a warmed quicksort of 4096 elements — a dozen spawned tasks —
// allocates what a two-element one does, the request itself (12 allocations
// against 4 when every root built its own pool).
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
		request := testing.AllocsPerRun(50, func() { copy(data, in[:2]); sort(data[:2]) })
		sorted := testing.AllocsPerRun(50, func() { copy(data, in); sort(data) })
		if sorted > request || !slices.IsSorted(data) {
			t.Errorf("%s: %v allocations per warmed 4096-element request, %v per two-element one (sorted: %v)",
				name, sorted, request, slices.IsSorted(data))
		}
	}
}
