package distpar

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
)

// TestParallelBitIdentical is the subsystem's central contract: generating
// on a scheduler team must reproduce the sequential output bit for bit for
// every kind, across seeds, block parameters and chunk-misaligned sizes.
func TestParallelBitIdentical(t *testing.T) {
	s := core.New(core.Options{P: 8})
	defer s.Shutdown()
	sizes := []int{MinParallel, MinParallel + 1, 3*MinParallel - 7, 1 << 18}
	for _, k := range dist.Kinds {
		for _, seed := range []uint64{0, 1, 42, 1 << 40} {
			for _, n := range sizes {
				want := dist.Generate(k, n, seed)
				got := Generate(s, k, n, seed)
				diff := -1
				for i := range want {
					if want[i] != got[i] {
						diff = i
						break
					}
				}
				if diff >= 0 {
					t.Fatalf("%v seed=%d n=%d: parallel differs at %d: %d != %d",
						k, seed, n, diff, want[diff], got[diff])
				}
			}
		}
	}
}

func TestParallelBitIdenticalWithP(t *testing.T) {
	s := core.New(core.Options{P: 4})
	defer s.Shutdown()
	const n = MinParallel + 4097
	for _, k := range []dist.Kind{dist.Buckets, dist.Staggered} {
		for _, p := range []int{1, 3, 16, 64} {
			want := dist.GenerateP(k, n, 7, p)
			got := GenerateP(s, k, n, 7, p)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%v p=%d: parallel differs at %d", k, p, i)
				}
			}
		}
	}
}

func TestSequentialFallback(t *testing.T) {
	// Small inputs, single-worker schedulers and a nil scheduler must all
	// take the sequential path and still match.
	s1 := core.New(core.Options{P: 1})
	defer s1.Shutdown()
	for _, k := range dist.Kinds {
		want := dist.Generate(k, 1000, 5)
		for name, got := range map[string][]int32{
			"small": Generate(s1, k, 1000, 5),
			"nil":   Generate(nil, k, 1000, 5),
		} {
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%v/%s: differs at %d", k, name, i)
				}
			}
		}
	}
	if got := Generate(nil, dist.Random, -3, 1); len(got) != 0 {
		t.Fatalf("negative n returned %d values", len(got))
	}
	// A scheduler that refuses the team fill (shut down under the caller)
	// must not hand back a half-filled buffer.
	dead := core.New(core.Options{P: 4})
	dead.Shutdown()
	want := dist.Generate(dist.Gauss, MinParallel, 9)
	for i, v := range Generate(dead, dist.Gauss, MinParallel, 9) {
		if v != want[i] {
			t.Fatalf("shut-down scheduler: differs at %d", i)
		}
	}
}
