package qsort

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
)

// The sorting stack is generic over Ordered; the paper sorts int32 but the
// library must behave for other element types too.

func TestSortsInt64(t *testing.T) {
	rng := dist.NewRNG(1)
	data := make([]int64, 50000)
	for i := range data {
		data[i] = int64(rng.Next()) // full-range, including negatives
	}
	s := core.New(core.Options{P: 4})
	defer s.Shutdown()
	run(t, s, MixedModeRoot(nil, s.MaxTeam(), data, MMOptions{BlockSize: 512, MinBlocksPerThread: 4}))
	if !IsSorted(data) {
		t.Fatal("int64 not sorted")
	}
}

func TestSortsFloat64(t *testing.T) {
	rng := dist.NewRNG(2)
	data := make([]float64, 50000)
	for i := range data {
		data[i] = float64(int64(rng.Next())) / 1e6
	}
	s := core.New(core.Options{P: 4})
	defer s.Shutdown()
	run(t, s, MixedModeRoot(nil, s.MaxTeam(), data, MMOptions{BlockSize: 512, MinBlocksPerThread: 4}))
	if !IsSorted(data) {
		t.Fatal("float64 not sorted")
	}
}

func TestSortsStrings(t *testing.T) {
	rng := dist.NewRNG(3)
	data := make([]string, 20000)
	alphabet := "abcdefghijklmnop"
	for i := range data {
		n := 1 + rng.Intn(12)
		b := make([]byte, n)
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		data[i] = string(b)
	}
	s := core.New(core.Options{P: 4})
	defer s.Shutdown()
	run(t, s, ForkJoinRoot(nil, data, 64))
	if !IsSorted(data) {
		t.Fatal("strings not sorted")
	}
}

func TestIntrosortNegativeAndExtremes(t *testing.T) {
	data := []int32{math.MaxInt32, math.MinInt32, 0, -1, 1, math.MaxInt32, math.MinInt32}
	Introsort(data)
	if !IsSorted(data) {
		t.Fatalf("extremes not sorted: %v", data)
	}
	if data[0] != math.MinInt32 || data[len(data)-1] != math.MaxInt32 {
		t.Fatalf("extremes misplaced: %v", data)
	}
}

func TestMixedModeUint32(t *testing.T) {
	rng := dist.NewRNG(4)
	data := make([]uint32, 100000)
	for i := range data {
		data[i] = uint32(rng.Next())
	}
	s := core.New(core.Options{P: 8})
	defer s.Shutdown()
	run(t, s, MixedModeRoot(nil, s.MaxTeam(), data, MMOptions{BlockSize: 1024, MinBlocksPerThread: 4}))
	if !IsSorted(data) {
		t.Fatal("uint32 not sorted")
	}
}
