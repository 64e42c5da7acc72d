package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Sample accumulates latency (or any scalar) observations and reports
// order statistics — the reporting half of the multi-client throughput
// harness (cmd/throughput). A Sample is not safe for concurrent use: each
// client records into its own Sample and the collector folds them together
// with Merge after the clients stop.
type Sample struct {
	vs     []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.vs = append(s.vs, v)
	s.sorted = false
}

// AddDuration records one observation in seconds.
func (s *Sample) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// Merge folds all of o's observations into s; o is unchanged.
func (s *Sample) Merge(o *Sample) {
	s.vs = append(s.vs, o.vs...)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.vs) }

// Mean returns the arithmetic mean, 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.vs {
		sum += v
	}
	return sum / float64(len(s.vs))
}

// Percentile returns the nearest-rank p-th percentile (p in [0, 100]): the
// observation at the smallest 1-based rank k with k·100 ≥ p·n. p = 0
// returns the minimum, p = 100 the maximum; an empty sample returns 0.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.vs)
	if n == 0 {
		return 0
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of [0, 100]", p))
	}
	s.ensureSorted()
	return s.vs[nearestRank(p, n)-1]
}

// nearestRank returns the smallest 1-based rank k in [1, n] with
// float64(k)·100 ≥ p·float64(n), for n ≥ 1 (k·100 is exact in float64 for
// any realistic n; p·n rounds once). The math.Ceil estimate divides by 100
// and so can land one off after rounding; the fix-up loops restore the
// predicate in either direction instead of emulating ceil with a
// truncate-and-compare, which was vulnerable to the double rounding.
func nearestRank(p float64, n int) int {
	t := p * float64(n)
	k := min(max(int(math.Ceil(t/100)), 1), n)
	for k > 1 && float64(k-1)*100 >= t {
		k--
	}
	for k < n && float64(k)*100 < t {
		k++
	}
	return k
}

// Min returns the smallest observation, 0 for an empty sample.
func (s *Sample) Min() float64 { return s.Percentile(0) }

// Max returns the largest observation, 0 for an empty sample.
func (s *Sample) Max() float64 { return s.Percentile(100) }

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.vs)
		s.sorted = true
	}
}
