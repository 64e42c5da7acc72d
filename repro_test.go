package repro_test

import (
	"sync/atomic"
	"testing"

	"repro"

	"repro/internal/stats"
)

// Facade-level tests: the public API must be usable without touching
// internal packages.

func newFacade(t *testing.T, p int) *repro.Scheduler {
	t.Helper()
	s := repro.NewScheduler(repro.Options{P: p})
	t.Cleanup(s.Shutdown)
	return s
}

func TestFacadeSortMixedMode(t *testing.T) {
	s := newFacade(t, 8)
	for _, k := range []repro.Distribution{repro.Random, repro.Gauss, repro.Buckets, repro.Staggered} {
		data := repro.GenerateInput(k, 300_000, 3)
		repro.SortMixedMode(s, data, repro.MMOptions{BlockSize: 512, MinBlocksPerThread: 8})
		for i := 1; i < len(data); i++ {
			if data[i] < data[i-1] {
				t.Fatalf("%v: not sorted at %d", k, i)
			}
		}
	}
}

func TestFacadeSortForkJoin(t *testing.T) {
	s := newFacade(t, 4)
	data := repro.GenerateInput(repro.Random, 100_000, 5)
	repro.SortForkJoin(s, data)
	for i := 1; i < len(data); i++ {
		if data[i] < data[i-1] {
			t.Fatal("not sorted")
		}
	}
}

func TestFacadeSortMergeMixedMode(t *testing.T) {
	s := newFacade(t, 8)
	data := repro.GenerateInput(repro.Staggered, 500_000, 7)
	repro.SortMergeMixedMode(s, data, repro.MSOptions{MinPerThread: 4096})
	for i := 1; i < len(data); i++ {
		if data[i] < data[i-1] {
			t.Fatal("not sorted")
		}
	}
}

func TestFacadeSortSequential(t *testing.T) {
	data := repro.GenerateInput(repro.Gauss, 50_000, 9)
	repro.SortSequential(data)
	for i := 1; i < len(data); i++ {
		if data[i] < data[i-1] {
			t.Fatal("not sorted")
		}
	}
}

func TestFacadeTeamTask(t *testing.T) {
	s := newFacade(t, 8)
	var mask atomic.Int64
	s.Run(repro.Func(8, func(ctx *repro.Ctx) {
		mask.Or(1 << ctx.LocalID())
		ctx.Barrier()
	}))
	if mask.Load() != 255 {
		t.Fatalf("mask = %b", mask.Load())
	}
}

func TestFacadeForStatic(t *testing.T) {
	s := newFacade(t, 4)
	var sum atomic.Int64
	s.Run(repro.ForStatic(4, 1000, func(_ *repro.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			sum.Add(int64(i))
		}
	}))
	if sum.Load() != 499500 {
		t.Fatalf("sum = %d", sum.Load())
	}
}

func TestFacadeForDynamic(t *testing.T) {
	s := newFacade(t, 4)
	var count atomic.Int64
	s.Run(repro.ForDynamic(4, 777, 10, func(_ *repro.Ctx, lo, hi int) {
		count.Add(int64(hi - lo))
	}))
	if count.Load() != 777 {
		t.Fatalf("count = %d", count.Load())
	}
}

func TestFacadeStats(t *testing.T) {
	s := newFacade(t, 4)
	s.Run(repro.Func(4, func(*repro.Ctx) {}))
	st := s.Stats()
	if st[stats.TasksRun] != 4 || st[stats.TeamsFormed] != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFacadeGenericTypes(t *testing.T) {
	s := newFacade(t, 4)
	f := []float64{3.5, -1.25, 2.0, 0.0, -7.5}
	repro.SortMixedMode(s, f, repro.MMOptions{})
	for i := 1; i < len(f); i++ {
		if f[i] < f[i-1] {
			t.Fatal("float64 not sorted")
		}
	}
	str := []string{"pear", "apple", "fig"}
	repro.SortForkJoin(s, str)
	if str[0] != "apple" || str[2] != "pear" {
		t.Fatalf("strings: %v", str)
	}
}
