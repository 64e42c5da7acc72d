// Package harness regenerates the paper's evaluation tables (Tables 1–10):
// the parallel Quicksort comparison across four input distributions, several
// input sizes, and seven sorting configurations, reporting average and best
// running times over a number of repetitions plus speedups relative to the
// best sequential implementation.
//
// The paper's four machines map to worker counts (8, 16, 32, 32, 64):
// worker goroutines stand in for hardware threads and run oversubscribed
// when the host has fewer CPUs (see cmd/tables).
package harness

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/classic"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dist/distpar"
	"repro/internal/msort"
	"repro/internal/qsort"
	"repro/internal/ssort"
)

// Algorithm identifies one column group of the paper's tables.
type Algorithm int

const (
	SeqSTL     Algorithm = iota // best sequential sort (our introsort)
	SeqQS                       // handwritten sequential quicksort
	Fork                        // Algorithm 10 on the team-building scheduler
	Randfork                    // Algorithm 10 on the baseline work-stealer, steal-half
	Cilk                        // Algorithm 10 on the baseline work-stealer, steal-one
	CilkSample                  // sample-pivot variant on the steal-one work-stealer
	MMPar                       // Algorithm 11 (mixed-mode) on the team-building scheduler
	SSort                       // mixed-mode samplesort (internal/ssort) on the team builder
	MSort                       // mixed-mode merge sort (internal/msort) on the team builder
	numAlgorithms
)

// column is one algorithm column's registry entry: its table label (the
// paper's, SSort and MSort being this repository's extension columns), its
// canonical -algos name and further accepted names, whether it runs on the
// shared core scheduler (the subset a multi-client Runtime serves), and
// whether the table gives it a speedup column next to its time (relative to
// Seq/STL, so rendered only when that column ran).
type column struct {
	label, flag string
	aliases     []string
	shared, su  bool
}

// columns gives speedups to the paper's Fork, Cilk and MMPar columns and to
// the extension columns.
var columns = [numAlgorithms]column{
	SeqSTL:     {label: "Seq/STL", flag: "seqstl", aliases: []string{"seq", "stl", "seq/stl"}, shared: true},
	SeqQS:      {label: "SeqQS", flag: "seqqs"},
	Fork:       {label: "Fork", flag: "fork", shared: true, su: true},
	Randfork:   {label: "Randfork", flag: "randfork"},
	Cilk:       {label: "Cilk", flag: "cilk", su: true},
	CilkSample: {label: "Cilk sample", flag: "cilksample", aliases: []string{"cilk-sample", "cilk sample"}},
	MMPar:      {label: "MMPar", flag: "mmpar", shared: true, su: true},
	SSort:      {label: "SSort", flag: "ssort", aliases: []string{"samplesort"}, shared: true, su: true},
	MSort:      {label: "MSort", flag: "msort", aliases: []string{"mergesort"}, shared: true, su: true},
}

// String returns the column label used in the tables.
func (a Algorithm) String() string {
	if a < 0 || a >= numAlgorithms {
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
	return columns[a].label
}

// algNames maps every accepted -algos name (lower-case) to its column.
var algNames = func() map[string]Algorithm {
	m := make(map[string]Algorithm)
	for a, c := range columns {
		for _, name := range append([]string{c.flag}, c.aliases...) {
			m[name] = Algorithm(a)
		}
	}
	return m
}()

// ParseAlgorithm resolves an algorithm column name (e.g. "mmpar",
// "ssort"), case-insensitively.
func ParseAlgorithm(s string) (Algorithm, error) {
	if a, ok := algNames[strings.ToLower(strings.TrimSpace(s))]; ok {
		return a, nil
	}
	names := make([]string, 0, len(algNames))
	for name := range algNames {
		names = append(names, name)
	}
	sort.Strings(names)
	return 0, fmt.Errorf("harness: unknown algorithm %q (want one of %s)",
		s, strings.Join(names, "|"))
}

// ParseAlgorithms resolves a comma-separated list of algorithm column
// names — the shared -algos flag parser of the command-line harnesses.
func ParseAlgorithms(csv string) ([]Algorithm, error) {
	var out []Algorithm
	for _, f := range strings.Split(csv, ",") {
		a, err := ParseAlgorithm(f)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// ParseSizes parses a comma-separated list of positive element counts —
// the shared -sizes flag parser of the command-line harnesses.
func ParseSizes(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("harness: bad size %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// ParseKinds parses a comma-separated list of input distribution names —
// the shared -dists flag parser of the command-line harnesses.
func ParseKinds(csv string) ([]dist.Kind, error) {
	var out []dist.Kind
	for _, f := range strings.Split(csv, ",") {
		k, err := dist.Parse(f)
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// Config describes one table's experiment grid.
type Config struct {
	Name     string      // table caption
	P        int         // workers ("hardware threads")
	Reps     int         // repetitions per cell (the paper uses 10)
	Sizes    []int       // input sizes (rows within each distribution)
	Kinds    []dist.Kind // distributions (row groups)
	WithCilk bool        // include the Cilk columns (Tables 1, 2, 5, 6)
	Algs     []Algorithm // algorithm columns; empty selects the default set
	Seed     uint64

	// Sorting tunables (§5 defaults when zero).
	Cutoff    int
	BlockSize int
	MinBlocks int
}

func (c Config) withDefaults() Config {
	if c.Reps < 1 {
		c.Reps = 1
	}
	if c.P < 1 {
		c.P = 1
	}
	if len(c.Sizes) == 0 {
		c.Sizes = QuickSizes
	}
	if len(c.Kinds) == 0 {
		c.Kinds = dist.Kinds
	}
	if c.Cutoff < 2 {
		c.Cutoff = qsort.DefaultCutoff
	}
	if c.BlockSize < 1 {
		c.BlockSize = qsort.DefaultBlockSize
	}
	if c.MinBlocks < 1 {
		c.MinBlocks = qsort.DefaultMinBlocksPerThread
	}
	if len(c.Algs) == 0 {
		c.Algs = []Algorithm{SeqSTL, SeqQS, Fork, Randfork, MMPar, SSort, MSort}
		if c.WithCilk {
			c.Algs = []Algorithm{SeqSTL, SeqQS, Fork, Randfork, Cilk, CilkSample, MMPar, SSort, MSort}
		}
	}
	return c
}

// FullSizes are the paper sizes that fit a ~20 GB machine in reasonable time.
var FullSizes = []int{10_000_000, 100_000_000, 1<<23 - 1, 1<<25 - 1, 1<<27 - 1}

// QuickSizes is a CI-friendly grid that still reaches team sizes ≥ 8 with
// the paper's default getBestNp parameters.
var QuickSizes = []int{1_000_000, 10_000_000, 1<<23 - 1}

// Cell is one measurement aggregate.
type Cell struct {
	Avg  float64 // seconds, mean over repetitions
	Best float64 // seconds, minimum over repetitions
}

// Row is one (distribution, size) line of a table.
type Row struct {
	Kind  dist.Kind
	Size  int
	Cells [numAlgorithms]Cell
	Ran   [numAlgorithms]bool
}

// Result is a completed experiment grid.
type Result struct {
	Cfg  Config
	Rows []Row
}

// Mode selects the aggregation of a rendered table: the paper publishes an
// "average running times" and a "best (minimum) running time" table per
// machine.
type Mode int

const (
	Avg Mode = iota
	Best
)

func (m Mode) String() string {
	if m == Avg {
		return "average"
	}
	return "best"
}

// Run executes the experiment grid. Progress lines are written to progress
// (use io.Discard to silence). Every sorted output is verified.
func Run(cfg Config, progress io.Writer) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{Cfg: cfg}
	algs := cfg.Algs
	var buf []int32
	for _, kind := range cfg.Kinds {
		for _, size := range cfg.Sizes {
			input := generateInput(cfg, kind, size)
			if cap(buf) < size {
				buf = make([]int32, size)
			}
			row := Row{Kind: kind, Size: size}
			for _, alg := range algs {
				cell, err := measure(cfg, alg, input, buf[:size])
				if err != nil {
					return nil, fmt.Errorf("%v/%v/%d: %w", alg, kind, size, err)
				}
				row.Cells[alg] = cell
				row.Ran[alg] = true
				fmt.Fprintf(progress, "%-11s %-9s n=%-11d avg=%8.4fs best=%8.4fs\n",
					alg, kind, size, cell.Avg, cell.Best)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// generateInput produces one table row's input. Large inputs are filled by
// a worker team on a short-lived scheduler (shut down before any timing
// starts); the output is bit-identical to sequential generation, so table
// results do not depend on the path taken.
func generateInput(cfg Config, kind dist.Kind, size int) []int32 {
	return distpar.GenerateWithWorkers(cfg.P, kind, size, cfg.Seed+uint64(size))
}

// measure times one algorithm cfg.Reps times on copies of input.
func measure(cfg Config, alg Algorithm, input, buf []int32) (Cell, error) {
	s, err := NewSorter(alg, cfg)
	if err != nil {
		return Cell{}, err
	}
	defer s.Close()
	cell := Cell{Best: -1}
	for r := 0; r < cfg.Reps; r++ {
		copy(buf, input)
		start := time.Now()
		if err := s.Sort(buf); err != nil {
			return Cell{}, err
		}
		el := time.Since(start).Seconds()
		cell.Avg += el
		if cell.Best < 0 || el < cell.Best {
			cell.Best = el
		}
		if !qsort.IsSorted(buf) {
			return Cell{}, fmt.Errorf("output not sorted")
		}
	}
	cell.Avg /= float64(cfg.Reps)
	return cell, nil
}

// Sorter is one algorithm column made runnable: the scheduler the algorithm
// needs, started, behind the two things a measurement does with it.
type Sorter struct {
	// Sort sorts d in place and blocks until it is sorted.
	Sort func(d []int32) error
	// Close stops the scheduler's workers.
	Close func()
}

// NewSorter is the one place the mapping from an algorithm column to its
// scheduler, its options and its sort function is written down; every cell
// of cmd/tables is measured through it. Of cfg it reads P, Seed and the
// sorting tunables.
func NewSorter(alg Algorithm, cfg Config) (Sorter, error) {
	cfg = cfg.withDefaults()
	// The team quota of the three mixed-mode columns is the same
	// BlockSize·MinBlocks, so they form teams at the same scales.
	quota := cfg.BlockSize * cfg.MinBlocks
	switch alg {
	case SeqSTL:
		return sequential(qsort.Introsort[int32]), nil
	case SeqQS:
		return sequential(func(d []int32) { qsort.SequentialQuicksortCutoff(d, cfg.Cutoff) }), nil
	case Fork:
		return onCore(cfg, func(_ int, d []int32) core.Task {
			return qsort.ForkJoinRoot(nil, d, cfg.Cutoff)
		}), nil
	case Randfork:
		return onClassic(cfg, classic.StealHalf, qsort.ForkJoinClassic[int32]), nil
	case Cilk:
		return onClassic(cfg, classic.StealOne, qsort.ForkJoinClassic[int32]), nil
	case CilkSample:
		return onClassic(cfg, classic.StealOne, qsort.SampleCilk[int32]), nil
	case MMPar:
		opt := qsort.MMOptions{Cutoff: cfg.Cutoff, BlockSize: cfg.BlockSize,
			MinBlocksPerThread: cfg.MinBlocks}
		return onCore(cfg, func(maxTeam int, d []int32) core.Task {
			return qsort.MixedModeRoot(nil, maxTeam, d, opt)
		}), nil
	case SSort:
		opt := ssort.Options{Cutoff: cfg.Cutoff, MinPerThread: quota}
		return onCore(cfg, func(maxTeam int, d []int32) core.Task {
			return ssort.Root(nil, maxTeam, d, nil, opt)
		}), nil
	case MSort:
		opt := msort.Options{Cutoff: cfg.Cutoff, MinPerThread: quota}
		return onCore(cfg, func(_ int, d []int32) core.Task {
			return msort.Root(d, nil, opt)
		}), nil
	default:
		return Sorter{}, fmt.Errorf("unknown algorithm %v", alg)
	}
}

func sequential(sort func([]int32)) Sorter {
	return Sorter{
		Sort:  func(d []int32) error { sort(d); return nil },
		Close: func() {},
	}
}

// onCore runs an algorithm's root task on a team-building scheduler.
func onCore(cfg Config, root func(maxTeam int, d []int32) core.Task) Sorter {
	s := core.New(core.Options{P: cfg.P, Seed: cfg.Seed})
	return Sorter{
		Sort:  func(d []int32) error { return s.Run(root(s.MaxTeam(), d)) },
		Close: s.Shutdown,
	}
}

// onClassic runs a fork-join sort on the baseline work-stealer.
func onClassic(cfg Config, policy classic.Policy, sort func(*classic.Scheduler, []int32, int)) Sorter {
	s := classic.New(classic.Options{P: cfg.P, Policy: policy, Seed: cfg.Seed})
	return Sorter{
		Sort:  func(d []int32) error { sort(s, d, cfg.Cutoff); return nil },
		Close: s.Shutdown,
	}
}
