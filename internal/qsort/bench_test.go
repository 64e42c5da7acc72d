package qsort

import (
	"fmt"
	"testing"

	"repro/internal/classic"
	"repro/internal/core"
	"repro/internal/dist"
)

// Micro-benchmarks of the sorting kernels; the table-level benchmarks live
// in the repository root (bench_test.go).

func benchSizes() []int { return []int{1 << 16, 1 << 20} }

func BenchmarkIntrosort(b *testing.B) {
	for _, n := range benchSizes() {
		in := dist.Generate(dist.Random, n, 42)
		buf := make([]int32, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(4 * n))
			for i := 0; i < b.N; i++ {
				copy(buf, in)
				Introsort(buf)
			}
		})
	}
}

// BenchmarkIntrosortPieces sorts 2^20 elements as pieces of m: the difference
// between two rows is what the levels between their piece sizes cost per
// element (m=512 is the parallel sorts' leaf, m=16 two runs of the network).
func BenchmarkIntrosortPieces(b *testing.B) {
	const n = 1 << 20
	in := dist.Generate(dist.Random, n, 42)
	buf := make([]int32, n)
	for _, m := range []int{16, 32, 64, 128, 256, 512, 4096} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(buf, in)
				b.StartTimer()
				for lo := 0; lo < n; lo += m {
					Introsort(buf[lo : lo+m])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
		})
	}
}

func BenchmarkSequentialQuicksort(b *testing.B) {
	for _, n := range benchSizes() {
		in := dist.Generate(dist.Random, n, 42)
		buf := make([]int32, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(4 * n))
			for i := 0; i < b.N; i++ {
				copy(buf, in)
				SequentialQuicksort(buf)
			}
		})
	}
}

// BenchmarkHoarePartition times one sequential partition, the refill of the
// buffer kept out of the timed region. n=4194304 is
// BenchmarkParallelPartition's size: its np=1 row over this one is what block
// acquisition, fan-in and cleanup cost the team kernel per element on top of
// the sequential one.
func BenchmarkHoarePartition(b *testing.B) {
	for _, n := range []int{1 << 20, 1 << 22} {
		in := dist.Generate(dist.Random, n, 42)
		buf := make([]int32, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(4 * n))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(buf, in)
				b.StartTimer()
				HoarePartition(buf)
			}
		})
	}
}

// BenchmarkParallelPartition measures the data-parallel partitioning step in
// isolation across team sizes — the kernel behind the MMPar advantage.
func BenchmarkParallelPartition(b *testing.B) {
	const n = 1 << 22
	in := dist.Generate(dist.Random, n, 42)
	for _, np := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("np=%d", np), func(b *testing.B) {
			s := core.New(core.Options{P: np})
			defer s.Shutdown()
			buf := make([]int32, n)
			b.SetBytes(4 * n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(buf, in)
				b.StartTimer()
				ps := newParState(buf, np, DefaultBlockSize)
				s.Run(core.Func(np, func(ctx *core.Ctx) {
					ps.phase1()
					if ctx.LocalID() == 0 {
						ps.fanin.WaitZero()
						ps.cleanup()
					}
				}))
			}
		})
	}
}

// BenchmarkMixedModeByDistribution mirrors one table row group per
// distribution at a bench-friendly size.
func BenchmarkMixedModeByDistribution(b *testing.B) {
	const n = 1 << 21
	s := core.New(core.Options{P: 8})
	defer s.Shutdown()
	opt := MMOptions{BlockSize: 1024, MinBlocksPerThread: 16}
	for _, k := range dist.Kinds {
		in := dist.Generate(k, n, 42)
		buf := make([]int32, n)
		b.Run(k.String(), func(b *testing.B) {
			b.SetBytes(4 * n)
			for i := 0; i < b.N; i++ {
				copy(buf, in)
				run(b, s, MixedModeRoot(nil, s.MaxTeam(), buf, opt))
			}
		})
	}
}

// BenchmarkForkJoinByScheduler is the layer number behind the tables' Fork,
// Randfork and Cilk columns: the same fork-join quicksort on the
// team-building scheduler and on the baseline work-stealer under each steal
// policy.
func BenchmarkForkJoinByScheduler(b *testing.B) {
	const n = 1 << 21
	in := dist.Generate(dist.Random, n, 42)
	buf := make([]int32, n)
	b.Run("core", func(b *testing.B) {
		s := core.New(core.Options{P: 8})
		defer s.Shutdown()
		b.SetBytes(4 * n)
		for i := 0; i < b.N; i++ {
			copy(buf, in)
			run(b, s, ForkJoinRoot(nil, buf, DefaultCutoff))
		}
	})
	for _, pc := range []struct {
		name   string
		policy classic.Policy
	}{{"steal-half", classic.StealHalf}, {"steal-one", classic.StealOne}} {
		b.Run(pc.name, func(b *testing.B) {
			s := classic.New(classic.Options{P: 8, Policy: pc.policy})
			defer s.Shutdown()
			b.SetBytes(4 * n)
			for i := 0; i < b.N; i++ {
				copy(buf, in)
				ForkJoinClassic(s, buf, DefaultCutoff)
			}
		})
	}
}
