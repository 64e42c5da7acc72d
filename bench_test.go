// Benchmarks regenerating the paper's evaluation (one benchmark per
// published table, Tables 1–10) plus the ablation benchmarks over the
// scheduler's design choices (the switches of core.Options) and the
// quicksort's §5 tunables.
//
// The table benchmarks run the same harness as cmd/tables on a reduced grid
// so that `go test -bench=.` completes in minutes; run
// `go run ./cmd/tables -all` (optionally -full) for the complete grids and
// formatted tables.
package repro_test

import (
	"io"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/harness"
	"repro/internal/qsort"
)

// benchTable runs one paper table's configuration on a reduced grid.
func benchTable(b *testing.B, table int) {
	cfg, mode, err := harness.TableConfig(table, true)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Sizes = []int{1 << 19}
	cfg.Kinds = []dist.Kind{dist.Random, dist.Staggered}
	cfg.Reps = 1
	// Keep teams forming at the reduced size.
	cfg.BlockSize = 1024
	cfg.MinBlocks = 16
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := harness.Run(cfg, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			row := res.Rows[0]
			b.ReportMetric(row.Speedup(harness.MMPar, mode), "mmpar-speedup")
			b.ReportMetric(row.Speedup(harness.Fork, mode), "fork-speedup")
		}
	}
}

func BenchmarkTable1NehalemAvg(b *testing.B)    { benchTable(b, 1) }
func BenchmarkTable2NehalemBest(b *testing.B)   { benchTable(b, 2) }
func BenchmarkTable3OpteronAvg(b *testing.B)    { benchTable(b, 3) }
func BenchmarkTable4OpteronBest(b *testing.B)   { benchTable(b, 4) }
func BenchmarkTable5NehalemEXAvg(b *testing.B)  { benchTable(b, 5) }
func BenchmarkTable6NehalemEXBest(b *testing.B) { benchTable(b, 6) }
func BenchmarkTable7T2x32Avg(b *testing.B)      { benchTable(b, 7) }
func BenchmarkTable8T2x32Best(b *testing.B)     { benchTable(b, 8) }
func BenchmarkTable9T2x64Avg(b *testing.B)      { benchTable(b, 9) }
func BenchmarkTable10T2x64Best(b *testing.B)    { benchTable(b, 10) }

// --- Per-algorithm sort benchmarks (the columns in isolation) -------------

const benchN = 1 << 20

func benchInput() []int32 { return dist.Generate(dist.Random, benchN, 42) }

func BenchmarkSortSeqSTL(b *testing.B) {
	in := benchInput()
	buf := make([]int32, benchN)
	b.SetBytes(4 * benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, in)
		qsort.Introsort(buf)
	}
}

func BenchmarkSortSeqQS(b *testing.B) {
	in := benchInput()
	buf := make([]int32, benchN)
	b.SetBytes(4 * benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, in)
		qsort.SequentialQuicksort(buf)
	}
}

func BenchmarkSortFork(b *testing.B) {
	s := core.New(core.Options{P: 8})
	defer s.Shutdown()
	in := benchInput()
	buf := make([]int32, benchN)
	b.SetBytes(4 * benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, in)
		repro.SortForkJoin(s, buf)
	}
}

func BenchmarkSortMMPar(b *testing.B) {
	s := core.New(core.Options{P: 8})
	defer s.Shutdown()
	in := benchInput()
	buf := make([]int32, benchN)
	opt := qsort.MMOptions{BlockSize: 1024, MinBlocksPerThread: 16}
	b.SetBytes(4 * benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, in)
		repro.SortMixedMode(s, buf, opt)
	}
}

// --- Ablation benchmarks ----------------------------------------------------

// mixedWorkload spawns a pyramid of team tasks of every size plus solo
// leaves; used by the scheduler ablations.
func mixedWorkload(s *core.Scheduler, teamWork int) {
	maxTeam := s.MaxTeam()
	s.Run(core.Solo(func(ctx *core.Ctx) {
		for r := 1; r <= maxTeam; r *= 2 {
			for k := 0; k < 8; k++ {
				ctx.Spawn(core.Func(r, func(c *core.Ctx) {
					x := 0
					for j := 0; j < teamWork; j++ {
						x += j
					}
					_ = x
					c.Barrier()
				}))
			}
		}
		for k := 0; k < 256; k++ {
			ctx.Spawn(core.Solo(func(*core.Ctx) {
				x := 0
				for j := 0; j < 2000; j++ {
					x += j
				}
				_ = x
			}))
		}
	}))
}

// BenchmarkAblationStealPattern compares deterministic (paper default)
// against randomized (Refinement 4) partner selection.
func BenchmarkAblationStealPattern(b *testing.B) {
	for _, variant := range []struct {
		name string
		rand bool
	}{{"deterministic", false}, {"randomized", true}} {
		b.Run(variant.name, func(b *testing.B) {
			s := core.New(core.Options{P: 8, Randomized: variant.rand, Seed: 7})
			defer s.Shutdown()
			for i := 0; i < b.N; i++ {
				mixedWorkload(s, 20000)
			}
		})
	}
}

// BenchmarkAblationStealAmount compares the paper's min(size/2, 2^ℓ) bulk
// steal against single-task steals.
func BenchmarkAblationStealAmount(b *testing.B) {
	for _, variant := range []struct {
		name string
		one  bool
	}{{"steal-level", false}, {"steal-one", true}} {
		b.Run(variant.name, func(b *testing.B) {
			s := core.New(core.Options{P: 8, StealOne: variant.one, Seed: 7})
			defer s.Shutdown()
			in := dist.Generate(dist.Random, 1<<20, 42)
			buf := make([]int32, len(in))
			for i := 0; i < b.N; i++ {
				copy(buf, in)
				s.Run(qsort.ForkJoinRoot(nil, buf, 128))
			}
		})
	}
}

// BenchmarkAblationTeamReuse compares keeping teams across same-size tasks
// (paper default, §3: "no further coordination") against disbanding after
// every task.
func BenchmarkAblationTeamReuse(b *testing.B) {
	for _, variant := range []struct {
		name    string
		disband bool
	}{{"reuse", false}, {"disband", true}} {
		b.Run(variant.name, func(b *testing.B) {
			s := core.New(core.Options{P: 8, DisableTeamReuse: variant.disband, Seed: 7})
			defer s.Shutdown()
			for i := 0; i < b.N; i++ {
				s.Run(core.Solo(func(ctx *core.Ctx) {
					for k := 0; k < 64; k++ {
						ctx.Spawn(core.Func(8, func(c *core.Ctx) { c.Barrier() }))
					}
				}))
			}
		})
	}
}

// BenchmarkAblationBlockSize sweeps the partition block size of the
// mixed-mode quicksort (§5 tunables).
func BenchmarkAblationBlockSize(b *testing.B) {
	in := dist.Generate(dist.Random, 1<<22, 42)
	for _, bs := range []int{1024, 4096, 16384} {
		b.Run(sizeName(bs), func(b *testing.B) {
			s := core.New(core.Options{P: 8})
			defer s.Shutdown()
			buf := make([]int32, len(in))
			opt := qsort.MMOptions{BlockSize: bs, MinBlocksPerThread: 16}
			b.SetBytes(4 << 22)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, in)
				repro.SortMixedMode(s, buf, opt)
			}
		})
	}
}

// BenchmarkAblationMinBlocks sweeps getBestNp's blocks-per-thread threshold.
func BenchmarkAblationMinBlocks(b *testing.B) {
	in := dist.Generate(dist.Random, 1<<22, 42)
	for _, mb := range []int{16, 128, 512} {
		b.Run(sizeName(mb), func(b *testing.B) {
			s := core.New(core.Options{P: 8})
			defer s.Shutdown()
			buf := make([]int32, len(in))
			opt := qsort.MMOptions{BlockSize: 1024, MinBlocksPerThread: mb}
			b.SetBytes(4 << 22)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, in)
				repro.SortMixedMode(s, buf, opt)
			}
		})
	}
}

// BenchmarkAblationR1Overhead measures the paper's claim that with r = 1
// tasks only, team-building adds no overhead over plain work-stealing: a
// pure task-parallel fib tree on the core scheduler.
func BenchmarkAblationR1Overhead(b *testing.B) {
	s := core.New(core.Options{P: 8})
	defer s.Shutdown()
	var fib func(ctx *core.Ctx, n int, out *atomic.Int64)
	fib = func(ctx *core.Ctx, n int, out *atomic.Int64) {
		if n < 2 {
			out.Add(int64(n))
			return
		}
		ctx.Spawn(core.Solo(func(c *core.Ctx) { fib(c, n-1, out) }))
		fib(ctx, n-2, out)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out atomic.Int64
		s.Run(core.Solo(func(ctx *core.Ctx) { fib(ctx, 22, &out) }))
		if out.Load() != 17711 {
			b.Fatalf("fib = %d", out.Load())
		}
	}
}

// BenchmarkTeamFormation measures the latency of building, using and
// disbanding a full-width team once.
func BenchmarkTeamFormation(b *testing.B) {
	s := core.New(core.Options{P: 8, DisableTeamReuse: true})
	defer s.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(core.Func(8, func(*core.Ctx) {}))
	}
}

// BenchmarkSpawnSolo measures task spawn+run overhead at r = 1.
func BenchmarkSpawnSolo(b *testing.B) {
	s := core.New(core.Options{P: 4})
	defer s.Shutdown()
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(core.Solo(func(ctx *core.Ctx) {
		for i := 0; i < b.N; i++ {
			ctx.Spawn(core.Solo(func(*core.Ctx) {}))
		}
	}))
	s.Wait()
}

func sizeName(n int) string {
	switch {
	case n >= 1<<20:
		return string(rune('0'+n>>20)) + "M"
	default:
		var buf [8]byte
		i := len(buf)
		for n > 0 {
			i--
			buf[i] = byte('0' + n%10)
			n /= 10
		}
		return string(buf[i:])
	}
}
