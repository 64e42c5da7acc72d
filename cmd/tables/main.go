// Command tables regenerates the paper's evaluation tables (Tables 1–10 of
// Wimmer & Träff, SPAA 2011): the Quicksort comparison across distributions,
// sizes and scheduler configurations.
//
// Usage:
//
//	tables -table 1            # one table, CI-friendly sizes
//	tables -all                # all ten tables
//	tables -table 5 -full      # the machine-sized grid (up to 2^27−1)
//	tables -table 1 -sizes 1000000,8388607 -reps 5
//	tables -table 1 -dists sorted,randdup,worstcase
//	tables -table 1 -algos seqstl,ssort    # samplesort rows in isolation
//	tables -table 2 -csv out.csv
//
// Worker counts above the host's CPU count (Tables 5–10 on small hosts) are
// run oversubscribed, mirroring the paper's own T2+ SMT oversubscription.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/harness"
)

func main() {
	var (
		table   = flag.Int("table", 0, "table number 1-10 (0 with -all)")
		all     = flag.Bool("all", false, "regenerate all ten tables")
		full    = flag.Bool("full", false, "use the machine-sized grid (up to 2^27-1) instead of the quick grid")
		reps    = flag.Int("reps", 0, "override repetitions per cell (paper: 10)")
		p       = flag.Int("p", 0, "override worker count")
		sizes   = flag.String("sizes", "", "override input sizes, comma-separated")
		dists   = flag.String("dists", "", "override distributions, comma-separated (any registered kind, e.g. sorted,randdup)")
		algos   = flag.String("algos", "", "override algorithm columns, comma-separated (e.g. seqstl,mmpar,ssort)")
		seed    = flag.Uint64("seed", 42, "input generator seed")
		csvPath = flag.String("csv", "", "also write results as CSV to this file")
		quiet   = flag.Bool("q", false, "suppress per-cell progress output")
	)
	flag.Parse()

	tablesToRun := []int{}
	switch {
	case *all:
		for i := 1; i <= 10; i++ {
			tablesToRun = append(tablesToRun, i)
		}
	case *table >= 1 && *table <= 10:
		tablesToRun = []int{*table}
	default:
		fmt.Fprintln(os.Stderr, "specify -table N (1-10) or -all")
		flag.Usage()
		os.Exit(2)
	}

	var csv strings.Builder
	for _, tbl := range tablesToRun {
		cfg, mode, err := harness.TableConfig(tbl, !*full)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *reps > 0 {
			cfg.Reps = *reps
		}
		if *p > 0 {
			cfg.P = *p
		}
		cfg.Seed = *seed
		if *sizes != "" {
			if cfg.Sizes, err = harness.ParseSizes(*sizes); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
		}
		if *dists != "" {
			if cfg.Kinds, err = harness.ParseKinds(*dists); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
		}
		if *algos != "" {
			if cfg.Algs, err = harness.ParseAlgorithms(*algos); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
		}
		if cfg.P > runtime.NumCPU() {
			fmt.Fprintf(os.Stderr, "note: p=%d exceeds %d CPUs; running oversubscribed\n",
				cfg.P, runtime.NumCPU())
		}
		progress := os.Stderr
		if *quiet {
			progress = nil
		}
		var pw = progressWriter(progress)
		res, err := harness.Run(cfg, pw)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(res.Table(mode))
		if *csvPath != "" {
			csv.WriteString(res.CSV())
		}
	}
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(csv.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

func progressWriter(f *os.File) interface{ Write([]byte) (int, error) } {
	if f == nil {
		return discard{}
	}
	return f
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
