package query_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/qsort"
	"repro/internal/query"
)

// Analytics operator benchmarks (developer tools; the numbers of record are
// the query.* probes of bench/run.sh): each runs one full-width team task
// per iteration over a fixed 1M-element input, so ns/op tracks both the
// operator kernel and the team-formation overhead that the paper's model
// amortizes. The plan benchmark chains three stages through one warm Plan,
// measuring the stage-boundary cost of the group drain between team tasks.

const (
	benchN  = 1 << 20
	benchNB = 256
	benchK  = 100
)

func benchSetup(b *testing.B) (*core.Scheduler, []int32) {
	b.Helper()
	s := core.New(core.Options{P: 0}) // NumCPU workers
	b.Cleanup(s.Shutdown)
	in := dist.Generate(dist.Random, benchN, 42)
	b.ReportAllocs()
	b.SetBytes(4 * benchN)
	return s, in
}

func benchKey(v int32) int             { return int(uint32(v)) % benchNB }
func benchPred(v int32) bool           { return v%2 == 0 }
func benchLift(a int64, v int32) int64 { return a + int64(v) }
func benchComb(a, b int64) int64       { return a + b }

// BenchmarkQueryFilter runs the filter at three selectivities: at 50 % the
// old if-on-the-predicate loops mispredicted every other element, at 0 % and
// 100 % the branch was free — the bypass, where only the direct predicate
// call is left to gain.
func BenchmarkQueryFilter(b *testing.B) {
	for _, bc := range []struct {
		name string
		pred func(int32) bool
	}{
		{"keep0", func(int32) bool { return false }},
		{"keep50", benchPred},
		{"keep100", func(int32) bool { return true }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, in := benchSetup(b)
			np := s.MaxTeam()
			dst := make([]int32, benchN)
			var n int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Run(query.Filter(np, in, dst, bc.pred, &n))
			}
			_ = n
		})
	}
}

func BenchmarkQueryGroupBy(b *testing.B) {
	s, in := benchSetup(b)
	np := s.MaxTeam()
	grouped := make([]int32, benchN)
	starts := make([]int, benchNB+1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(query.GroupBy(np, in, grouped, benchNB, benchKey, starts))
	}
}

func BenchmarkQueryAggregate(b *testing.B) {
	s, in := benchSetup(b)
	np := s.MaxTeam()
	out := make([]int64, benchNB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(query.Aggregate(np, in, benchNB, benchKey, 0, benchLift, benchComb, out))
	}
}

// BenchmarkQueryTopK runs the selection on random input, where the scan's
// threshold test rejects all but a few hundred elements, and on ascending
// input, where every element is a candidate and the test buys nothing (the
// bypass: it must cost nothing either).
func BenchmarkQueryTopK(b *testing.B) {
	for _, kind := range []dist.Kind{dist.Random, dist.Sorted} {
		b.Run(kind.String(), func(b *testing.B) {
			s, _ := benchSetup(b)
			in := dist.Generate(kind, benchN, 42)
			np := s.MaxTeam()
			dst := make([]int32, benchK)
			var n int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Run(query.TopK(np, in, dst, benchK, &n))
			}
			_ = n
		})
	}
}

func BenchmarkQueryMergeJoin(b *testing.B) {
	s, in := benchSetup(b)
	np := s.MaxTeam()
	srt := append([]int32(nil), in...)
	qsort.Introsort(srt)
	out := make([]query.JoinRun[int32], benchN)
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(query.MergeJoin(np, srt, srt, out, &n))
	}
	_ = n
}

func BenchmarkQueryPlan(b *testing.B) {
	s, in := benchSetup(b)
	p := query.NewPlan[int32](benchN, s.MaxTeam(), 0).
		Filter(benchPred).
		Aggregate(benchNB, benchKey, 0, benchLift, benchComb).
		TopK(benchK)
	g := s.NewGroup()
	p.Execute(g, in) // warm the plan so iterations measure steady state
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Execute(g, in)
	}
}
