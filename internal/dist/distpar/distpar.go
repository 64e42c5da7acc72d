// Package distpar generates benchmark inputs in parallel on the
// repository's own team-building scheduler — the first in-repo consumer of
// the scheduler outside the benchmarks themselves. A full-width team fills
// disjoint contiguous chunks via dist.Fill (core.ForDynamic's dynamic
// schedule with the core.DefaultChunk chunk size), and because every dist
// generator is positional the result is bit-identical to the sequential
// dist.Generate output for every kind, seed and block parameter.
//
// This lives in a subpackage because internal/core's in-package tests
// import internal/dist; dist itself therefore must not import core.
package distpar

import (
	"repro/internal/core"
	"repro/internal/dist"
)

// MinParallel is the input size below which GenerateP falls back to
// sequential generation: a team build plus barrier costs more than filling
// a few tens of thousands of elements.
const MinParallel = 1 << 16

// Generate is dist.Generate computed on s. The output is bit-identical to
// dist.Generate(k, n, seed).
func Generate(s *core.Scheduler, k dist.Kind, n int, seed uint64) []int32 {
	return GenerateP(s, k, n, seed, dist.DefaultP)
}

// GenerateP is dist.GenerateP computed on s: a team of s.MaxTeam() workers
// fills disjoint contiguous chunks claimed dynamically (core.DefaultChunk
// elements per claim, so per-kind cost differences — Gauss draws four
// values per element, Sorted none — balance inside the team). Inputs below
// MinParallel (or a single-worker scheduler) are generated sequentially;
// every generator is positional, so the output is bit-identical to
// dist.GenerateP(k, n, seed, p) whichever path and chunk interleaving is
// taken. The fill runs as its own one-shot task group, so concurrent
// generations (and sorts) on a shared scheduler do not wait on each other.
func GenerateP(s *core.Scheduler, k dist.Kind, n int, seed uint64, p int) []int32 {
	if n < 0 {
		n = 0
	}
	np := 0
	if s != nil {
		np = s.MaxTeam()
	}
	if np < 2 || n < MinParallel {
		return dist.GenerateP(k, n, seed, p)
	}
	vs := make([]int32, n)
	fill := core.ForDynamic(np, n, core.DefaultChunk(np, n), func(_ *core.Ctx, lo, hi int) {
		dist.Fill(k, vs[lo:hi], lo, n, seed, p)
	})
	if err := s.Run(fill); err != nil {
		// Only a scheduler shut down under the caller gets here; the
		// sequential path returns the same values without it.
		return dist.GenerateP(k, n, seed, p)
	}
	return vs
}

// GenerateWithWorkers generates on a short-lived scheduler of the given
// worker count (0 selects NumCPU), shut down before returning — the one
// policy for callers without a long-lived scheduler (harness rows, CLI
// input generation). workers == 1 or n < MinParallel takes the sequential
// path; the output is bit-identical either way.
func GenerateWithWorkers(workers int, k dist.Kind, n int, seed uint64) []int32 {
	if workers == 1 || n < MinParallel {
		return dist.Generate(k, n, seed)
	}
	s := core.New(core.Options{P: workers, Seed: seed})
	defer s.Shutdown()
	return Generate(s, k, n, seed)
}
