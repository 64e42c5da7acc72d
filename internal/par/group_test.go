package par_test

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/par"
)

// TestStandaloneTasksInGroups runs the standalone-task forms of several
// primitives concurrently, each client in its own quiescence group on one
// shared scheduler, and checks every client's results against the
// sequential oracles: team-parallel kernels from independent clients must
// neither corrupt each other nor wait on each other's quiescence.
func TestStandaloneTasksInGroups(t *testing.T) {
	s := propSched(t)
	const clients = 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			in := dist.Generate(dist.Kinds[c%len(dist.Kinds)], propN, uint64(c))
			add := func(a, b int64) int64 { return a + b }
			at := func(i int) int64 { return int64(in[i]) }
			wantSum := par.SeqReduce(len(in), 0, at, add)
			const nb = 37
			bucketOf := func(i int) int { return int(uint32(in[i]) % nb) }
			wantHist := par.SeqHistogram(len(in), nb, bucketOf)
			keep := func(_ int, v int32) bool { return v%3 == 0 }
			wantPack := make([]int32, len(in))
			wantPack = wantPack[:par.SeqPack(in, wantPack, keep)]

			// Batch two independent primitives into one group and join
			// them with a single Wait; then run a third via g.Run.
			g := s.NewGroup()
			var gotSum int64
			gotHist := make([]int, nb)
			np := 2 + c%2*2 // alternate team sizes 2 and 4 across clients
			g.Spawn(par.Reduce(np, len(in), 0, at, add, &gotSum))
			g.Spawn(par.Histogram(np, len(in), nb, bucketOf, gotHist))
			g.Wait()
			if gotSum != wantSum {
				t.Errorf("client %d: reduce = %d, want %d", c, gotSum, wantSum)
			}
			if !slices.Equal(gotHist, wantHist) {
				t.Errorf("client %d: histogram = %v, want %v", c, gotHist, wantHist)
			}

			dst := make([]int32, len(in))
			var n int
			g.Run(par.Pack(np, in, dst, keep, &n))
			if !slices.Equal(dst[:n], wantPack) {
				t.Errorf("client %d: pack kept %d elements, want %d, or in another order", c, n, len(wantPack))
			}
			if g.Pending() != 0 {
				t.Errorf("client %d: group pending = %d after Wait", c, g.Pending())
			}
		}(c)
	}
	wg.Wait()
}
