package repro_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro"
)

// Multi-client concurrency tests: one shared scheduler serves many
// goroutines sorting independent slices at once. Per-group quiescence is
// what makes this correct — each sort call waits only for its own task
// tree — and the -race gate (scripts/check.sh) runs this file to check the
// scheduler's memory discipline under real contention.

// concurrentOpts exercises team formation at race-test sizes: the default
// mixed-mode quotas would degenerate every sort below ~1M elements to pure
// fork-join, leaving the team protocol untested.
var concurrentOpts = struct {
	mm repro.MMOptions
	ss repro.SSOptions
	ms repro.MSOptions
}{
	mm: repro.MMOptions{BlockSize: 1024, MinBlocksPerThread: 4},
	ss: repro.SSOptions{MinPerThread: 1 << 13},
	ms: repro.MSOptions{MinPerThread: 1 << 13},
}

// sortOnRuntime dispatches one request on the shared runtime.
func sortOnRuntime(rt *repro.Runtime[int32], algo string, data []int32) {
	switch algo {
	case "mmpar":
		rt.SortMixedMode(data, concurrentOpts.mm)
	case "fork":
		rt.SortForkJoin(data)
	case "ssort":
		rt.SortSamplesort(data, concurrentOpts.ss)
	case "msort":
		rt.SortMergeMixedMode(data, concurrentOpts.ms)
	default:
		panic("unknown algo " + algo)
	}
}

// checkSortedPermutation asserts out is sorted and a permutation of in.
func checkSortedPermutation(t *testing.T, label string, in, out []int32) {
	t.Helper()
	want := append([]int32(nil), in...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(out) != len(want) {
		t.Errorf("%s: length changed: %d -> %d", label, len(want), len(out))
		return
	}
	for i := range out {
		if out[i] != want[i] {
			t.Errorf("%s: not the sorted permutation of its input (first diff at %d: got %d want %d)",
				label, i, out[i], want[i])
			return
		}
	}
}

// TestConcurrentSortsSharedScheduler runs every core-scheduler algorithm ×
// several distributions concurrently, one goroutine per (algorithm,
// distribution) pair, all on one shared scheduler.
func TestConcurrentSortsSharedScheduler(t *testing.T) {
	rt := repro.NewRuntime[int32](repro.Options{P: 8})
	defer rt.Close()

	algos := []string{"mmpar", "fork", "ssort", "msort"}
	kinds := []repro.Distribution{repro.Random, repro.Staggered, repro.RandDup, repro.Sorted}
	const n = 1 << 17

	var wg sync.WaitGroup
	for ai, algo := range algos {
		for ki, kind := range kinds {
			wg.Add(1)
			go func(algo string, kind repro.Distribution, seed uint64) {
				defer wg.Done()
				in := repro.GenerateInput(kind, n, seed)
				out := append([]int32(nil), in...)
				sortOnRuntime(rt, algo, out)
				checkSortedPermutation(t, fmt.Sprintf("%s/%v", algo, kind), in, out)
			}(algo, kind, uint64(ai*len(kinds)+ki+1))
		}
	}
	wg.Wait()
	if p := rt.Scheduler().Pending(); p != 0 {
		t.Fatalf("pending = %d after all sorts returned", p)
	}
}

// TestConcurrentSortsIndependence is the acceptance shape verbatim: 2 and
// then 8 concurrent mixed-mode sorts on one shared scheduler, each
// completing correctly and independently.
func TestConcurrentSortsIndependence(t *testing.T) {
	rt := repro.NewRuntime[int32](repro.Options{P: 8})
	defer rt.Close()
	for _, clients := range []int{2, 8} {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				kind := []repro.Distribution{repro.Random, repro.Gauss}[c%2]
				in := repro.GenerateInput(kind, 1<<17, uint64(100+c))
				out := append([]int32(nil), in...)
				rt.SortMixedMode(out, concurrentOpts.mm)
				checkSortedPermutation(t, fmt.Sprintf("clients=%d/%d", clients, c), in, out)
			}(c)
		}
		wg.Wait()
	}
}

// TestConcurrentMixedWorkload interleaves different request shapes from
// each client — sorts of varying sizes and algorithms plus team-parallel
// input generation — the multi-client mixed-mode setting of the ROADMAP's
// production trajectory.
func TestConcurrentMixedWorkload(t *testing.T) {
	s := repro.NewScheduler(repro.Options{P: 8})
	defer s.Shutdown()
	rt := repro.NewRuntimeOn[int32](s)

	const clients = 8
	algos := []string{"mmpar", "fork", "ssort", "msort"}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for req := 0; req < 3; req++ {
				n := 1 << (14 + (c+req)%4) // 16K … 128K
				kind := repro.Distributions()[(c+req)%len(repro.Distributions())]
				in := repro.GenerateInputParallel(s, kind, n, uint64(c*10+req))
				out := append([]int32(nil), in...)
				sortOnRuntime(rt, algos[(c+req)%len(algos)], out)
				checkSortedPermutation(t, fmt.Sprintf("client%d/req%d", c, req), in, out)
			}
		}(c)
	}
	wg.Wait()
}

// TestConcurrentBatchesPooledScratch: eight clients run batches of the two
// out-of-place sorts — two samplesorts and a merge sort on distinct inputs,
// each borrowing its scratch from the Runtime's pool — and a third of the
// batches run under a context that has already expired, so buffers also
// come back from groups that were canceled. Every batch that was not
// canceled must come out sorted with its checksum intact; under -race a
// buffer handed to two requests at once is a detected race as well.
func TestConcurrentBatchesPooledScratch(t *testing.T) {
	rt := repro.NewRuntime[int32](repro.Options{P: 4})
	defer rt.Close()
	opt := repro.BatchOptions{SS: concurrentOpts.ss, MS: concurrentOpts.ms}
	expired, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()

	const clients, rounds, n = 8, 6, 1 << 15
	algos := []repro.SortAlgo{repro.AlgoSamplesort, repro.AlgoSamplesort, repro.AlgoMergeMixedMode}
	checksum := func(d []int32) (sum uint64) {
		for _, v := range d {
			sum += uint64(uint32(v))
		}
		return sum
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				reqs := make([]repro.SortRequest[int32], len(algos))
				sums := make([]uint64, len(algos))
				for i, algo := range algos {
					kind := []repro.Distribution{repro.Random, repro.RandDup, repro.Staggered}[(c+round+i)%3]
					reqs[i] = repro.SortRequest[int32]{Data: repro.GenerateInput(kind, n, uint64(c*100+round*10+i)), Algo: algo}
					sums[i] = checksum(reqs[i].Data)
				}
				label := fmt.Sprintf("client%d/round%d", c, round)
				if (c+round)%3 == 0 {
					if err := rt.SortManyCtx(expired, reqs, opt); !errors.Is(err, repro.ErrDeadlineExceeded) {
						t.Errorf("%s: err = %v under an expired context, want ErrDeadlineExceeded", label, err)
					}
					continue // a canceled batch's data is garbage
				}
				if err := rt.SortManyCtx(context.Background(), reqs, opt); err != nil {
					t.Errorf("%s: %v", label, err)
					continue
				}
				for i, rq := range reqs {
					if !slices.IsSorted(rq.Data) || checksum(rq.Data) != sums[i] {
						t.Errorf("%s/req%d: output not sorted or checksum changed", label, i)
					}
				}
			}
		}(c)
	}
	wg.Wait()
}
