package par_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/par"
)

// Primitive throughput benchmarks (developer tools; the numbers of record
// are the par.* probes of bench/run.sh): each runs one full-width team task
// per iteration over a fixed 1M-element input, so ns/op tracks both the
// kernel and the team-formation overhead that the paper's model amortizes.

const benchN = 1 << 20

func benchSetup(b *testing.B) (*core.Scheduler, []int32) {
	b.Helper()
	s := core.New(core.Options{P: 0}) // NumCPU workers
	b.Cleanup(s.Shutdown)
	in := dist.Generate(dist.Random, benchN, 42)
	b.ReportAllocs()
	b.SetBytes(4 * benchN)
	return s, in
}

func BenchmarkReduce(b *testing.B) {
	s, in := benchSetup(b)
	np := s.MaxTeam()
	add := func(a, x int64) int64 { return a + x }
	at := func(i int) int64 { return int64(in[i]) }
	var out int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(par.Reduce(np, benchN, 0, at, add, &out))
	}
	_ = out
}

func BenchmarkScanInclusive(b *testing.B) {
	s, in := benchSetup(b)
	np := s.MaxTeam()
	add := func(a, x int32) int32 { return a + x }
	data := make([]int32, benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(data, in)
		s.Run(par.ScanInclusive(np, data, 0, add, nil))
	}
}

func BenchmarkScanExclusive(b *testing.B) {
	s, in := benchSetup(b)
	np := s.MaxTeam()
	add := func(a, x int32) int32 { return a + x }
	data := make([]int32, benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(data, in)
		s.Run(par.ScanExclusive(np, data, 0, add, nil))
	}
}

func BenchmarkPack(b *testing.B) {
	s, in := benchSetup(b)
	np := s.MaxTeam()
	keep := func(_ int, v int32) bool { return v%2 == 0 }
	dst := make([]int32, benchN)
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(par.Pack(np, in, dst, keep, &n))
	}
	_ = n
}

func BenchmarkHistogram(b *testing.B) {
	s, in := benchSetup(b)
	np := s.MaxTeam()
	const nb = 256
	bucketOf := func(i int) int { return int(uint32(in[i]) >> 23) } // top bits of [0, 2³¹)
	out := make([]int, nb)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(par.Histogram(np, benchN, nb, bucketOf, out))
	}
}
