package msort

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/qsort"
)

// BenchmarkSort compares the mixed-mode merge sort against the sequential
// baseline and the mixed-mode quicksort at the same size.
func BenchmarkSort(b *testing.B) {
	const n = 1 << 21
	in := dist.Generate(dist.Random, n, 42)
	buf := make([]int32, n)

	b.Run("sequential", func(b *testing.B) {
		b.SetBytes(4 * n)
		for i := 0; i < b.N; i++ {
			copy(buf, in)
			qsort.Introsort(buf)
		}
	})
	for _, p := range []int{4, 8} {
		b.Run(fmt.Sprintf("msort-p%d", p), func(b *testing.B) {
			s := core.New(core.Options{P: p})
			defer s.Shutdown()
			opt := Options{MinPerThread: 1 << 15}
			b.SetBytes(4 * n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, in)
				s.Run(Root(buf, nil, opt))
			}
		})
		b.Run(fmt.Sprintf("mmqsort-p%d", p), func(b *testing.B) {
			s := core.New(core.Options{P: p})
			defer s.Shutdown()
			opt := qsort.MMOptions{BlockSize: 1024, MinBlocksPerThread: 16}
			b.SetBytes(4 * n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, in)
				s.Run(qsort.MixedModeRoot(nil, s.MaxTeam(), buf, opt))
			}
		})
	}
}

func BenchmarkCoRank(b *testing.B) {
	const n = 1 << 20
	a := dist.Generate(dist.Random, n, 1)
	c := dist.Generate(dist.Random, n, 2)
	qsort.Introsort(a)
	qsort.Introsort(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coRank(a, c, (i*2097143)%(2*n))
	}
}
