package stats

import (
	"math"
	"sync/atomic"
)

// Histogram is a fixed-boundary, log-bucketed latency/duration histogram.
// The boundaries are the powers of two from 2^histMinExp to 2^histMaxExp
// seconds (≈1 µs … 64 s) plus a +Inf overflow bucket, so every histogram in
// the process shares one boundary table and snapshots merge bucket-by-bucket
// without any boundary negotiation.
//
// Observe is allocation-free and — when callers honor the sharding
// contract — contention-free: the histogram is split into cache-line-padded
// shards, and each concurrent writer (a worker, a client goroutine) records
// into its own shard. A shard index outside [0, shards) is reduced modulo the shard
// count, so callers may pass any stable per-writer integer (a worker id, a
// round-robin ticket). Writers that do collide on one shard stay correct —
// bucket counts are atomic adds and the sum is CAS-accumulated — they only
// contend on the shard's cache lines.
//
// The read path (Snapshot) is one pass of atomic loads. Each field it
// returns is a value that field held, and Count is the sum of the bucket
// counts it read, so a snapshot is never torn within itself; taken while
// writers run it may mix shards, or a shard's buckets and sum, from instants
// a few observations apart, which a monitoring scrape tolerates. Once the
// writers have stopped it is exact. See internal/stats/README.md.
type Histogram struct {
	shards []histShard
}

const (
	histMinExp = -20 // smallest finite boundary: 2^-20 s ≈ 0.95 µs
	histMaxExp = 6   // largest finite boundary: 2^6 s = 64 s

	// HistBuckets is the number of buckets, including the +Inf overflow
	// bucket. Bucket 0 holds observations ≤ 2^histMinExp; bucket i (0 < i <
	// HistBuckets−1) holds observations in (2^(histMinExp+i−1),
	// 2^(histMinExp+i)]; the last bucket holds everything larger.
	HistBuckets = histMaxExp - histMinExp + 2
)

// histShard is one writer's slice of the histogram. The trailing padding
// rounds the struct up to a cache-line multiple (TestHistShardPadded holds
// it to unsafe.Sizeof) so adjacent shards never share a line; within a
// shard, all lines are written by the shard's owner.
type histShard struct {
	sum   atomic.Uint64 // Float64bits of the shard's value sum
	count [HistBuckets]atomic.Uint64
	_     [24]byte
}

// NewHistogram returns a histogram with the given number of shards
// (clamped to ≥ 1). One shard per concurrent writer removes all write
// contention; fewer shards trade contention for memory (each shard is
// 256 B).
func NewHistogram(shards int) *Histogram {
	if shards < 1 {
		shards = 1
	}
	return &Histogram{shards: make([]histShard, shards)}
}

// histBound returns the i-th finite bucket boundary, 2^(histMinExp+i).
func histBound(i int) float64 { return math.Ldexp(1, histMinExp+i) }

// bucketOf returns the index of the bucket counting v: the first bucket
// whose upper boundary is ≥ v. The boundaries are exact powers of two, so
// the index falls out of v's floating-point exponent; the mantissa check
// keeps exact powers of two in the bucket they bound (le semantics).
// Non-positive and NaN values land in the first bucket.
//
//repro:noalloc pure bit arithmetic on the Observe path
func bucketOf(v float64) int {
	if !(v > 0) {
		return 0
	}
	bits := math.Float64bits(v)
	e := int(bits>>52&0x7ff) - 1023
	if e == 1024 {
		return HistBuckets - 1 // +Inf
	}
	b := e - histMinExp + 1
	if bits&(1<<52-1) == 0 {
		b-- // v is exactly 2^e: counted under the boundary it equals
	}
	if b < 0 {
		return 0
	}
	if b >= HistBuckets {
		return HistBuckets - 1
	}
	return b
}

// Observe records one observation of v (seconds) on the given shard,
// allocation-free. Callers should dedicate one shard per concurrent writer
// (the index is reduced modulo the shard count); see the type comment for
// the contract. NaN and negative values are clamped to zero.
//
//repro:noalloc documented allocation-free; called per scheduler event
func (h *Histogram) Observe(shard int, v float64) { h.ObserveN(shard, v, 1) }

// ObserveN records n observations of the same value v on the given shard —
// the batched form of Observe (a SortMany batch attributes its end-to-end
// latency to every request it carried).
//
//repro:noalloc documented allocation-free; called per scheduler event
func (h *Histogram) ObserveN(shard int, v float64, n uint64) {
	if n == 0 {
		return
	}
	if !(v >= 0) { // NaN or negative: keep the sum finite and monotone
		v = 0
	}
	sh := &h.shards[uint(shard)%uint(len(h.shards))]
	sh.count[bucketOf(v)].Add(n)
	for {
		o := sh.sum.Load()
		if sh.sum.CompareAndSwap(o, math.Float64bits(math.Float64frombits(o)+v*float64(n))) {
			break
		}
	}
}

// Snapshot returns a merged copy of all shards: one pass of atomic loads,
// Count being the sum of the bucket counts read (see the type comment for
// what that means while writers run).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.shards {
		sh := &h.shards[i]
		for b := 0; b < HistBuckets; b++ {
			s.Counts[b] += sh.count[b].Load()
		}
		s.Sum += math.Float64frombits(sh.sum.Load())
	}
	for _, c := range s.Counts {
		s.Count += c
	}
	return s
}

// HistSnapshot is a plain-value copy of a Histogram: per-bucket counts
// (non-cumulative), the total observation count, and the value sum.
// Snapshots of any two histograms merge with Add (all histograms share the
// fixed boundary table).
type HistSnapshot struct {
	Counts [HistBuckets]uint64
	Count  uint64
	Sum    float64
}

// Add accumulates o into s.
func (s *HistSnapshot) Add(o HistSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// PercentileBounds returns the bucket bracketing the nearest-rank p-th
// percentile (p in [0, 100]): the exact order statistic v_k satisfies
// lo ≤ v_k ≤ hi, where hi is the upper boundary of the bucket holding rank
// k and lo its lower boundary (0 below the first bucket, +Inf boundaries
// for the overflow bucket). The rank is Sample.Percentile's, nearestRank —
// the smallest 1-based k with k·100 ≥ p·n — so a histogram and a Sample fed
// the same observations bracket each other exactly, within one bucket width.
// An empty snapshot returns (0, 0).
func (s HistSnapshot) PercentileBounds(p float64) (lo, hi float64) {
	if s.Count == 0 {
		return 0, 0
	}
	k := uint64(nearestRank(p, int(s.Count)))
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= k {
			if i == HistBuckets-1 {
				return histBound(HistBuckets - 2), math.Inf(1)
			}
			if i == 0 {
				return 0, histBound(0)
			}
			return histBound(i - 1), histBound(i)
		}
	}
	return 0, 0 // unreachable: cum reaches Count ≥ k
}

// Percentile returns the upper bucket boundary bracketing the nearest-rank
// p-th percentile — a conservative (over-)estimate off by at most one
// bucket width. +Inf means the percentile fell in the overflow bucket.
func (s HistSnapshot) Percentile(p float64) float64 {
	_, hi := s.PercentileBounds(p)
	return hi
}
