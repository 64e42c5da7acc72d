package teamsync

import (
	"sync"
	"testing"
)

// BenchmarkBarrier measures one full barrier phase across team sizes —
// the per-task synchronization cost inside teams.
func BenchmarkBarrier(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(string(rune('0'+n)), func(b *testing.B) {
			bar := NewBarrier(n)
			var wg sync.WaitGroup
			iters := b.N
			b.ResetTimer()
			for t := 0; t < n; t++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						bar.Wait()
					}
				}()
			}
			wg.Wait()
		})
	}
}

func BenchmarkCounterFanIn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := NewCounter(8)
		for j := 0; j < 8; j++ {
			c.Done()
		}
		c.WaitZero()
	}
}
