package main

import (
	"math"
	"testing"
)

func ramp(n int) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(i + 1)
	}
	return v
}

// A percentile is a number only with ten samples beyond it.
func TestPercentileEligibility(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want int64
		ok   bool
	}{
		{19, 50, 10, false}, // 9 beyond
		{20, 50, 10, true},  // 10 beyond
		{99, 90, 90, false}, // 9 beyond
		{100, 90, 90, true},
		{999, 99, 990, false},
		{1000, 99, 990, true},
		{0, 50, 0, false},
	} {
		got, ok := percentile(ramp(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("n=%d p%g: got %d eligible %v, want %d %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

func TestSummaryPrintsIneligiblePercentilesAsNull(t *testing.T) {
	s := summarizeMS(ramp(80))
	if s.P50 == nil || s.P99 != nil || s.P90 != nil {
		t.Errorf("80 samples: p50 %v p90 %v p99 %v; want a number, null, null", s.P50, s.P90, s.P99)
	}
	if s.N != 80 {
		t.Errorf("sample count %d", s.N)
	}
}

func TestTailOfPicksHighestEligible(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{{10, 50}, {50, 50}, {100, 90}, {1000, 99}, {10000, 99.9}} {
		if p, _ := tailOf(ramp(tc.n)); p != tc.p {
			t.Errorf("n=%d: tail percentile %g, want %g", tc.n, p, tc.p)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{9.93, 10.21, 9.87, 10.02, 9.95, 10.4, 9.9, 10.0, 10.1, 9.99}
	q1, q3 := quartiles(v)
	if math.Abs(q1-9.9225) > 1e-9 || math.Abs(q3-10.1275) > 1e-9 {
		t.Errorf("quartiles %.6f %.6f, want 9.9225 10.1275", q1, q3)
	}
	if got, want := spread(v), (10.1275-9.9225)/9.995; math.Abs(got-want) > 1e-9 {
		t.Errorf("spread %.6f, want %.6f", got, want)
	}
	if got := spread([]float64{10, 11}); math.Abs(got-1/10.5) > 1e-9 {
		t.Errorf("two-value spread %.6f", got)
	}
}

// quantile interpolates between ranks: the deciles of the end-to-end metrics
// and the medians come from it.
func TestQuantile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3, 6} // ranks 1..6
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {0.1, 1.5}, {0.5, 3.5}, {0.9, 5.5}, {1, 6},
	} {
		if got := quantile(v, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("quantile(%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %g", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: %g", got)
	}
}
