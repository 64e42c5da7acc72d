package ssort_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/qsort"
	"repro/internal/ssort"
)

// Samplesort-vs-quicksort benchmarks per input distribution (developer
// tools; the numbers of record are the ssort.* and qsort.* probes of
// bench/run.sh): BenchmarkSSort and BenchmarkMMQsort run the two mixed-mode
// algorithms on identical 1M-element inputs of every registered
// distribution, and on Random at 2^16 elements — the size of an openloop
// request, where the samplesort is one team phase over fork-join buckets.

const (
	benchN     = 1 << 20
	benchSmall = 1 << 16
)

func benchInputs() map[dist.Kind][]int32 {
	ins := make(map[dist.Kind][]int32, len(dist.Kinds))
	for _, k := range dist.Kinds {
		ins[k] = dist.Generate(k, benchN, 42)
	}
	return ins
}

func benchPerKind(b *testing.B, sortFn func(s *core.Scheduler, data []int32)) {
	s := core.New(core.Options{P: 0})
	b.Cleanup(s.Shutdown)
	ins := benchInputs()
	buf := make([]int32, benchN)
	run := func(name string, in []int32) {
		buf := buf[:len(in)]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(4 * len(in)))
			for i := 0; i < b.N; i++ {
				copy(buf, in)
				sortFn(s, buf)
			}
			if !qsort.IsSorted(buf) {
				b.Fatal("output not sorted")
			}
		})
	}
	for _, k := range dist.Kinds {
		run(k.String(), ins[k])
	}
	run("Random/65536", dist.Generate(dist.Random, benchSmall, 42))
}

func BenchmarkSSort(b *testing.B) {
	benchPerKind(b, func(s *core.Scheduler, data []int32) {
		s.Run(ssort.Root(nil, s.MaxTeam(), data, nil, ssort.Options{}))
	})
}

func BenchmarkMMQsort(b *testing.B) {
	benchPerKind(b, func(s *core.Scheduler, data []int32) {
		s.Run(qsort.MixedModeRoot(nil, s.MaxTeam(), data, qsort.MMOptions{}))
	})
}
