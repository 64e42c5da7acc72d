// Command mmqsort sorts a generated input with a selectable algorithm and
// reports timing — a command-line front end to the repository's sorting
// stack, convenient for one-off comparisons.
//
// Usage:
//
//	mmqsort -n 10000000 -dist staggered -algo mmpar -p 8
//	mmqsort -n 8388607 -algo fork -cutoff 256
//	mmqsort -n 10000000 -algo ssort
//	mmqsort -n 1000000 -algo all
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/dist/distpar"
	"repro/internal/harness"
	"repro/internal/qsort"
)

func main() {
	names := make([]string, len(dist.Kinds))
	for i, k := range dist.Kinds {
		names[i] = k.String()
	}
	var (
		n       = flag.Int("n", 10_000_000, "number of 4-byte integers to sort")
		distStr = flag.String("dist", "random", "distribution: "+strings.Join(names, "|"))
		algo    = flag.String("algo", "mmpar", "algorithm(s), comma-separated: seqstl|seqqs|fork|randfork|cilk|cilksample|mmpar|ssort|msort, or all")
		p       = flag.Int("p", 0, "workers (default NumCPU)")
		seed    = flag.Uint64("seed", 42, "input seed")
		reps    = flag.Int("reps", 1, "repetitions")
		cutoff  = flag.Int("cutoff", qsort.DefaultCutoff, "sequential cutoff")
		block   = flag.Int("block", qsort.DefaultBlockSize, "partition block size (mmpar)")
		minBlk  = flag.Int("minblocks", qsort.DefaultMinBlocksPerThread, "min blocks per partitioning thread (mmpar)")
		stats   = flag.Bool("stats", false, "print scheduler statistics")
	)
	flag.Parse()

	kind, err := dist.Parse(*distStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	algos := harness.AllAlgorithms()
	if !strings.EqualFold(strings.TrimSpace(*algo), "all") {
		if algos, err = harness.ParseAlgorithms(*algo); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *p <= 0 {
		*p = runtime.NumCPU()
	}
	cfg := harness.Config{P: *p, Seed: *seed, Cutoff: *cutoff, BlockSize: *block, MinBlocks: *minBlk}
	input := generateInput(kind, *n, *seed, *p)
	buf := make([]int32, *n)

	for _, a := range algos {
		var best, total time.Duration
		var schedStats string
		for r := 0; r < *reps; r++ {
			copy(buf, input)
			// The scheduler lives for one repetition, started and stopped
			// outside the timed region.
			s, err := harness.NewSorter(a, cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			start := time.Now()
			err = s.Sort(buf)
			el := time.Since(start)
			if *stats && s.Stats != nil {
				schedStats = s.Stats().String()
			}
			s.Close()
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", a.FlagName(), err)
				os.Exit(1)
			}
			if !qsort.IsSorted(buf) {
				fmt.Fprintf(os.Stderr, "%s: OUTPUT NOT SORTED\n", a.FlagName())
				os.Exit(1)
			}
			total += el
			if best == 0 || el < best {
				best = el
			}
		}
		fmt.Printf("%-11s n=%d dist=%-9s avg=%v best=%v\n",
			a.FlagName(), *n, kind, total/time.Duration(*reps), best)
		if *stats && schedStats != "" {
			fmt.Printf("  stats: %s\n", schedStats)
		}
	}
}

// generateInput fills large inputs with a worker team on a throwaway
// scheduler (bit-identical to sequential generation, so timings are
// comparable across paths), small ones sequentially.
func generateInput(kind dist.Kind, n int, seed uint64, p int) []int32 {
	return distpar.GenerateWithWorkers(p, kind, n, seed)
}
