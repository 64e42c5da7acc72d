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

func BenchmarkQueryFilter(b *testing.B) {
	s, in := benchSetup(b)
	np := s.MaxTeam()
	dst := make([]int32, benchN)
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(query.Filter(np, in, dst, benchPred, &n))
	}
	_ = n
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

func BenchmarkQueryTopK(b *testing.B) {
	s, in := benchSetup(b)
	np := s.MaxTeam()
	dst := make([]int32, benchK)
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(query.TopK(np, in, dst, benchK, &n))
	}
	_ = n
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
