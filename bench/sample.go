package main

import (
	"math"
	"slices"
)

// minBeyond is the eligibility rule of every reported percentile: a
// percentile is a number only when at least this many samples lie beyond it,
// otherwise it prints as null (a p99 of 80 samples is one sample, not a
// percentile).
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (p in (0, 100)) of an
// ascending sample and whether at least minBeyond samples lie beyond it. The
// rank rule is the one of stats.Sample.Percentile: the smallest 1-based k
// with k·100 ≥ p·n.
func percentile(sorted []int64, p float64) (v int64, eligible bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	k := int(math.Ceil(p * float64(n) / 100))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return sorted[k-1], n-k >= minBeyond
}

// tailPercentiles are the candidates of tailOf, ascending.
var tailPercentiles = []float64{50, 90, 99, 99.9}

// tailOf returns the highest candidate percentile that is eligible, the
// "highest percentile with ten samples beyond it" that goes with a median.
// With fewer than 20 samples nothing is eligible and it reports the median.
func tailOf(sorted []int64) (p float64, v int64) {
	p = tailPercentiles[0]
	v, _ = percentile(sorted, p)
	for _, q := range tailPercentiles[1:] {
		if w, ok := percentile(sorted, q); ok {
			p, v = q, w
		}
	}
	return p, v
}

// timing is the bookkeeping every timing in result.json carries: how many
// samples, their quartiles, and the percentiles that are eligible (nil
// prints as null).
type timing struct {
	Unit string   `json:"unit"`
	N    int      `json:"n"`
	Q1   *float64 `json:"q1"`
	P50  *float64 `json:"p50"`
	Q3   *float64 `json:"q3"`
	P90  *float64 `json:"p90"`
	P99  *float64 `json:"p99"`
}

// summarizeMS builds the timing, in milliseconds, of an ascending sample of
// nanoseconds.
func summarizeMS(sorted []int64) timing {
	at := func(p float64) *float64 {
		v, ok := percentile(sorted, p)
		if !ok {
			return nil
		}
		f := float64(v) / 1e6
		return &f
	}
	return timing{Unit: "ms", N: len(sorted), Q1: at(25), P50: at(50), Q3: at(75), P90: at(90), P99: at(99)}
}

// medianNS is the plain median of an ascending nanosecond sample (no
// eligibility rule: the driver contract wants a number from every run).
func medianNS(sorted []int64) float64 {
	v, _ := percentile(sorted, 50)
	return float64(v)
}

// median of a float sample; 0 for an empty one.
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile is the p-quantile (p in [0, 1]) of a float sample, interpolated
// linearly between the two nearest ranks; 0 for an empty sample. It sorts a
// copy.
func quantile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(vs))
	k := p * float64(len(s)-1)
	i := int(k)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(k-float64(i))
}

// quartiles returns the first and third quartile of vs exactly as Python's
// statistics.quantiles(vs, n=4) (the default exclusive method) does, so the
// spread this program prints is the spread the driver computes. It needs at
// least two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(vs))
	ld := len(s)
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// spread is what the repeatability check compares with a bound: the distance
// between the extremes (fewer than four values) or between the quartiles, as
// a share of the median.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	med := median(vs)
	if med == 0 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if len(vs) >= 4 {
		lo, hi = quartiles(vs)
	}
	return math.Abs((hi - lo) / med)
}
