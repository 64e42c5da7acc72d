package stats

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/dist"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{-1, 0},
		{math.NaN(), 0},
		{math.SmallestNonzeroFloat64, 0},
		{histBound(0) / 2, 0},
		{histBound(0), 0},          // exact boundary: le semantics
		{histBound(0) * 1.0001, 1}, // just over the first boundary
		{histBound(5), 5},          // every exact power of two sits under its own bound
		{histBound(5) * 1.0001, 6},
		{1.0, bucketOf(histBound(20))}, // 1 s = 2^0 = bound 20
		{histBound(HistBuckets - 2), HistBuckets - 2}, // largest finite bound
		{histBound(HistBuckets-2) * 2, HistBuckets - 1},
		{math.MaxFloat64, HistBuckets - 1},
		{math.Inf(1), HistBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	// Exhaustive boundary check: every finite bound falls in its own bucket,
	// and anything nudged above it falls in the next.
	for i := 0; i < HistBuckets-1; i++ {
		if got := bucketOf(histBound(i)); got != i {
			t.Errorf("bucketOf(bound %d) = %d", i, got)
		}
		above := math.Nextafter(histBound(i), math.Inf(1))
		want := i + 1
		if want > HistBuckets-1 {
			want = HistBuckets - 1
		}
		if got := bucketOf(above); got != want {
			t.Errorf("bucketOf(just above bound %d) = %d, want %d", i, got, want)
		}
	}
}

func TestHistogramBoundsTable(t *testing.T) {
	const last = HistBuckets - 2 // index of the largest finite bound
	for i := 1; i <= last; i++ {
		if histBound(i) != 2*histBound(i-1) {
			t.Fatalf("bounds not doubling at %d: %g -> %g", i, histBound(i-1), histBound(i))
		}
	}
	if histBound(0) != math.Ldexp(1, histMinExp) || histBound(last) != math.Ldexp(1, histMaxExp) {
		t.Fatalf("bounds range [%g, %g]", histBound(0), histBound(last))
	}
}

// TestHistShardPadded holds the shard stride to the size the compiler gives
// the struct: shards sit in one array, and a stride that is not a multiple
// of the cache line puts two writers' counters on one line.
func TestHistShardPadded(t *testing.T) {
	if sz := unsafe.Sizeof(histShard{}); sz%64 != 0 {
		t.Fatalf("sizeof(histShard) = %d, not a multiple of 64: fix the trailing padding", sz)
	}
}

func TestObserveSnapshot(t *testing.T) {
	h := NewHistogram(2)
	h.Observe(0, 0.5)
	h.Observe(1, 0.5)
	h.ObserveN(0, 2.0, 3)
	h.Observe(7, 4.0)        // shard reduced modulo 2
	h.Observe(0, math.NaN()) // clamped to 0: first bucket, sum unchanged
	h.Observe(0, -3)         // likewise
	s := h.Snapshot()
	if s.Count != 8 {
		t.Fatalf("Count = %d, want 8", s.Count)
	}
	if want := 0.5 + 0.5 + 3*2.0 + 4.0; s.Sum != want {
		t.Fatalf("Sum = %g, want %g", s.Sum, want)
	}
	if got := s.Counts[bucketOf(0.5)]; got != 2 {
		t.Fatalf("bucket(0.5) = %d, want 2", got)
	}
	if got := s.Counts[bucketOf(2.0)]; got != 3 {
		t.Fatalf("bucket(2.0) = %d, want 3", got)
	}
	if got := s.Counts[0]; got != 2 {
		t.Fatalf("first bucket = %d, want 2 (NaN and negative clamped)", got)
	}
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Fatalf("Counts sum %d != Count %d", total, s.Count)
	}
}

// TestSnapshotQuiescentIsExact: with no writer running, one pass of loads
// returns every bucket, the count and the sum exactly, whatever the spread
// over shards and however often Snapshot is called.
func TestSnapshotQuiescentIsExact(t *testing.T) {
	const shards, rounds = 3, 500
	h := NewHistogram(shards)
	var want HistSnapshot
	for i := 0; i < rounds; i++ {
		v := math.Ldexp(1, i%12-10) // exact powers of two: the float sum is exact in any order
		n := uint64(i%4 + 1)
		h.ObserveN(i, v, n)
		want.Counts[bucketOf(v)] += n
		want.Count += n
		want.Sum += v * float64(n)
	}
	for try := 0; try < 3; try++ {
		if got := h.Snapshot(); got != want {
			t.Fatalf("snapshot %d of a quiescent histogram:\n got %+v\nwant %+v", try, got, want)
		}
	}
}

func TestSnapshotAdd(t *testing.T) {
	a, b := NewHistogram(1), NewHistogram(4)
	a.Observe(0, 0.001)
	b.Observe(2, 1.0)
	b.Observe(3, 100.0) // overflow bucket
	s := a.Snapshot()
	s.Add(b.Snapshot())
	if s.Count != 3 || s.Sum != 101.001 {
		t.Fatalf("merged Count=%d Sum=%g", s.Count, s.Sum)
	}
	if s.Counts[HistBuckets-1] != 1 {
		t.Fatalf("overflow bucket = %d, want 1", s.Counts[HistBuckets-1])
	}
}

func TestPercentileBoundsEdges(t *testing.T) {
	var empty HistSnapshot
	if lo, hi := empty.PercentileBounds(50); lo != 0 || hi != 0 {
		t.Fatalf("empty bounds = (%g, %g)", lo, hi)
	}
	h := NewHistogram(1)
	h.Observe(0, 1000) // overflow only
	if lo, hi := h.Snapshot().PercentileBounds(50); lo != histBound(HistBuckets-2) || !math.IsInf(hi, 1) {
		t.Fatalf("overflow bounds = (%g, %g)", lo, hi)
	}
	h2 := NewHistogram(1)
	h2.Observe(0, 1e-9) // first bucket only
	if lo, hi := h2.Snapshot().PercentileBounds(50); lo != 0 || hi != histBound(0) {
		t.Fatalf("first-bucket bounds = (%g, %g)", lo, hi)
	}
}

// TestPercentileBracketsSample is the property test tying the histogram's
// percentile estimates to the exact order statistics of Sample: for every
// input distribution of the benchmark suite, the histogram's
// PercentileBounds bracket Sample.Percentile — both sides use the identical
// nearest-rank predicate, so the only slack is the bucket width.
func TestPercentileBracketsSample(t *testing.T) {
	const n = 2000
	for _, k := range dist.Kinds {
		t.Run(k.String(), func(t *testing.T) {
			xs := dist.Generate(k, n, 7)
			h := NewHistogram(4)
			var sm Sample
			for i, x := range xs {
				// Map int32 to a positive duration in (0, ~4.3] seconds so the
				// values span many buckets (and, for the constant
				// distributions, sit exactly on one).
				v := (float64(x) + (1 << 31) + 1) * 1e-9
				h.Observe(i, v) // rotating shard index, reduced modulo 4
				sm.Add(v)
			}
			snap := h.Snapshot()
			if snap.Count != n {
				t.Fatalf("Count = %d, want %d", snap.Count, n)
			}
			for _, p := range []float64{0, 25, 50, 90, 99, 99.9, 100} {
				exact := sm.Percentile(p)
				lo, hi := snap.PercentileBounds(p)
				if !(lo <= exact && exact <= hi) {
					t.Fatalf("p%v: exact %g outside bucket [%g, %g]", p, exact, lo, hi)
				}
				if hi > 0 && lo > 0 && hi != 2*lo && !math.IsInf(hi, 1) {
					t.Fatalf("p%v: bracket [%g, %g] wider than one bucket", p, lo, hi)
				}
				if got := snap.Percentile(p); got != hi {
					t.Fatalf("Percentile(%v) = %g, want hi %g", p, got, hi)
				}
			}
		})
	}
}

// TestHistogramConcurrent exercises the snapshot against concurrent writers
// (under -race this also checks the synchronization): every snapshot must
// observe internally consistent totals, and the final drained snapshot must
// account every observation exactly once.
func TestHistogramConcurrent(t *testing.T) {
	const (
		writers = 4
		perW    = 5000
	)
	h := NewHistogram(writers)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() { // concurrent snapshotter
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			var total uint64
			for _, c := range s.Counts {
				total += c
			}
			if total != s.Count {
				t.Errorf("torn snapshot: bucket sum %d != Count %d", total, s.Count)
				return
			}
		}
	}()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.Observe(g, 0.001*float64(g+1))
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	s := h.Snapshot()
	if s.Count != writers*perW {
		t.Fatalf("Count = %d, want %d", s.Count, writers*perW)
	}
	want := 0.0
	for g := 0; g < writers; g++ {
		want += 0.001 * float64(g+1) * perW
	}
	if math.Abs(s.Sum-want) > 1e-9 {
		t.Fatalf("Sum = %g, want %g", s.Sum, want)
	}
}

// BenchmarkHistogramObserve measures the sharded Observe under p concurrent
// single-shard writers, b.N observations total (split across the writers).
// The acceptance gate: 0 allocs/op and flat (or falling) ns/op across
// writer counts — shards never share cache lines, so adding writers must
// not add contention.
func BenchmarkHistogramObserve(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("writers=%d", p), func(b *testing.B) {
			h := NewHistogram(p)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < p; g++ {
				n := b.N / p
				if g < b.N%p {
					n++
				}
				wg.Add(1)
				go func(g, n int) {
					defer wg.Done()
					v := 0.001 * float64(g+1)
					<-start
					for i := 0; i < n; i++ {
						h.Observe(g, v)
					}
				}(g, n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			close(start)
			wg.Wait()
		})
	}
}
