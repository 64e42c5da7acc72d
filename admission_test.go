package repro_test

import (
	"context"
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"repro"

	"repro/internal/stats"
)

// Admission-control tests at the public API level: bounded runtimes under
// client floods, the batched SortMany entry point, and the typed errors of
// the non-blocking spawn forms. Runs under the -race gate (scripts/check.sh).

// TestRuntimeSortMany sorts a heterogeneous batch — all four scheduler
// algorithms, several distributions and sizes including trivial ones — with
// a single SortMany call, from several concurrent clients.
func TestRuntimeSortMany(t *testing.T) {
	rt := repro.NewRuntime[int32](repro.Options{P: 4, Seed: 7})
	defer rt.Close()
	algos := []repro.SortAlgo{
		repro.AlgoMixedMode, repro.AlgoForkJoin,
		repro.AlgoSamplesort, repro.AlgoMergeMixedMode,
	}
	opt := repro.BatchOptions{
		MM: concurrentOpts.mm, SS: concurrentOpts.ss, MS: concurrentOpts.ms,
	}
	const clients = 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var ins [][]int32
			var reqs []repro.SortRequest[int32]
			i := 0
			for _, kind := range []repro.Distribution{repro.Random, repro.Staggered, repro.Reverse} {
				for _, n := range []int{0, 1, 100, 1 << 15} {
					in := repro.GenerateInput(kind, n, uint64(c*100+n))
					data := append([]int32(nil), in...)
					ins = append(ins, in)
					reqs = append(reqs, repro.SortRequest[int32]{Data: data, Algo: algos[i%len(algos)]})
					i++
				}
			}
			rt.SortMany(reqs, opt)
			for j, rq := range reqs {
				checkSortedPermutation(t, "sortmany", ins[j], rq.Data)
			}
		}(c)
	}
	wg.Wait()
	if p := rt.Scheduler().Pending(); p != 0 {
		t.Fatalf("pending = %d after all batches", p)
	}
}

// TestRuntimeBoundedFlood is the acceptance property at the Runtime level:
// with clients ≫ P and admission bounds configured, the scheduler's peak
// pending injected tasks never exceed MaxInject while every request still
// completes correctly.
func TestRuntimeBoundedFlood(t *testing.T) {
	const bound = 4
	rt := repro.NewRuntime[int32](repro.Options{
		P: 2, Seed: 3, MaxInject: bound, MaxPendingPerGroup: 2,
	})
	defer rt.Close()
	const clients = 12
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				in := repro.GenerateInput(repro.Random, 4096, uint64(c)<<16|uint64(i))
				data := append([]int32(nil), in...)
				sortOnRuntime(rt, []string{"mmpar", "fork", "ssort", "msort"}[i%4], data)
				checkSortedPermutation(t, "bounded", in, data)
			}
		}(c)
	}
	wg.Wait()
	adm := rt.Scheduler().Admission()
	if adm[stats.PeakPending] > bound {
		t.Fatalf("peak pending injected = %d exceeds MaxInject %d", adm[stats.PeakPending], bound)
	}
	if adm.Pending() != 0 || adm[stats.Injected] != adm[stats.Taken] {
		t.Fatalf("admission flow inconsistent after drain: %+v", adm)
	}
}

// TestGroupTrySpawnSaturation checks the typed-error surface of the public
// API: a full group reports ErrSaturated from TrySpawn, and a shut-down
// scheduler reports ErrShutdown.
func TestGroupTrySpawnSaturation(t *testing.T) {
	s := repro.NewScheduler(repro.Options{P: 1, MaxPendingPerGroup: 1})
	block := make(chan struct{})
	g := s.NewGroup()
	g.Spawn(repro.Solo(func(*repro.Ctx) { <-block })) // occupies the worker
	for g.PendingInjected() != 0 {
	}
	if err := g.TrySpawn(repro.Solo(func(*repro.Ctx) {})); err != nil {
		t.Fatalf("TrySpawn into empty queue: %v", err)
	}
	err := g.TrySpawn(repro.Solo(func(*repro.Ctx) {}))
	if !errors.Is(err, repro.ErrSaturated) {
		t.Fatalf("TrySpawn over budget: err = %v, want ErrSaturated", err)
	}
	close(block)
	g.Wait()
	s.Shutdown()
	if err := g.TrySpawn(repro.Solo(func(*repro.Ctx) {})); !errors.Is(err, repro.ErrShutdown) {
		t.Fatalf("TrySpawn after Shutdown: err = %v, want ErrShutdown", err)
	}
}

// TestSortManyCtx exercises the cancelable batch entry point end to end:
// a background-context batch behaves exactly like SortMany (nil error, data
// sorted), a pre-canceled context refuses with ErrCanceled before any work,
// and a batch abandoned mid-flight returns its typed cause with the
// scheduler fully drained — the public face of revocation at take time.
func TestSortManyCtx(t *testing.T) {
	rt := repro.NewRuntime[int32](repro.Options{P: 4, Seed: 11})
	defer rt.Close()

	mk := func(n int, seed uint64) []int32 {
		return append([]int32(nil), repro.GenerateInput(repro.Random, n, seed)...)
	}

	// Background context: identical to SortMany.
	data := mk(1<<14, 1)
	err := rt.SortManyCtx(context.Background(),
		[]repro.SortRequest[int32]{{Data: data, Algo: repro.AlgoMixedMode}},
		repro.BatchOptions{})
	if err != nil {
		t.Fatalf("background SortManyCtx = %v", err)
	}
	if !sort.SliceIsSorted(data, func(i, j int) bool { return data[i] < data[j] }) {
		t.Fatal("background batch left data unsorted")
	}

	// Pre-canceled context: typed refusal, nothing runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = rt.SortManyCtx(ctx,
		[]repro.SortRequest[int32]{{Data: mk(1<<12, 2), Algo: repro.AlgoForkJoin}},
		repro.BatchOptions{})
	if !errors.Is(err, repro.ErrCanceled) {
		t.Fatalf("pre-canceled SortManyCtx = %v, want ErrCanceled", err)
	}
	// Empty batch under a dead context still reports the typed cause.
	if err := rt.SortManyCtx(ctx, nil, repro.BatchOptions{}); !errors.Is(err, repro.ErrCanceled) {
		t.Fatalf("empty canceled SortManyCtx = %v, want ErrCanceled", err)
	}

	// A deadline tight enough to abandon a large batch mid-flight: the call
	// must return ErrDeadlineExceeded and leave the scheduler drained. (On a
	// fast machine the batch may occasionally beat the clock; retry with
	// more work rather than flaking.)
	for attempt, n := 0, 1<<20; ; attempt, n = attempt+1, n*2 {
		reqs := make([]repro.SortRequest[int32], 8)
		for i := range reqs {
			reqs[i] = repro.SortRequest[int32]{Data: mk(n, uint64(3+i)), Algo: repro.AlgoMergeMixedMode}
		}
		dctx, dcancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		err := rt.SortManyCtx(dctx, reqs, repro.BatchOptions{})
		dcancel()
		if errors.Is(err, repro.ErrDeadlineExceeded) {
			break
		}
		if err != nil {
			t.Fatalf("abandoned SortManyCtx = %v, want ErrDeadlineExceeded", err)
		}
		if attempt == 4 {
			t.Skip("machine sorts 8x16M elements in <2ms; cannot provoke abandonment")
		}
	}
	if p := rt.Scheduler().Pending(); p != 0 {
		t.Fatalf("pending = %d after abandoned batch", p)
	}
}
