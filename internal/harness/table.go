package harness

import (
	"fmt"
	"strings"
)

// value returns the rendered time of a cell under the given mode.
func (c Cell) value(m Mode) float64 {
	if m == Avg {
		return c.Avg
	}
	return c.Best
}

// Speedup returns the paper's SU column: the row's Seq/STL time divided by
// the algorithm's time, within the table's aggregation mode ("Speedup is
// calculated relative to the (best) sequential STL implementation").
func (r Row) Speedup(alg Algorithm, m Mode) float64 {
	base := r.Cells[SeqSTL].value(m)
	v := r.Cells[alg].value(m)
	if v <= 0 {
		return 0
	}
	return base / v
}

// algorithms returns the columns that actually ran, in enum order (the
// union over all rows, so a -algos subset renders only its columns).
func (r *Result) algorithms() []Algorithm {
	var present [numAlgorithms]bool
	for _, row := range r.Rows {
		for a := Algorithm(0); a < numAlgorithms; a++ {
			if row.Ran[a] {
				present[a] = true
			}
		}
	}
	algs := make([]Algorithm, 0, numAlgorithms)
	for a := Algorithm(0); a < numAlgorithms; a++ {
		if present[a] {
			algs = append(algs, a)
		}
	}
	return algs
}

// Table renders the result in the paper's layout: rows grouped by
// distribution, one time column per algorithm that ran (Seq/STL, SeqQS,
// Fork(+SU), Randfork, [Cilk(+SU), Cilk sample,] MMPar(+SU), SSort(+SU)),
// with speedup columns when the Seq/STL baseline is present.
func (r *Result) Table(m Mode) string {
	var b strings.Builder
	algs := r.algorithms()
	var ranSTL bool
	for _, a := range algs {
		ranSTL = ranSTL || a == SeqSTL
	}
	fmt.Fprintf(&b, "%s — %s running times over %d repetitions (p=%d), seconds\n",
		r.Cfg.Name, m, r.Cfg.Reps, r.Cfg.P)
	header := fmt.Sprintf("%-10s %11s", "Type", "Size")
	widths := make([]int, len(algs))
	for i, a := range algs {
		label := a.String()
		widths[i] = len(label)
		if widths[i] < 9 {
			widths[i] = 9
		}
		header += fmt.Sprintf(" %*s", widths[i], label)
		if ranSTL && columns[a].su {
			header += fmt.Sprintf(" %5s", "SU")
		}
	}
	b.WriteString(header)
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("-", len(header)))
	b.WriteByte('\n')
	lastKind := ""
	for _, row := range r.Rows {
		kind := row.Kind.String()
		if kind == lastKind {
			kind = ""
		} else {
			lastKind = kind
		}
		fmt.Fprintf(&b, "%-10s %11d", kind, row.Size)
		for i, a := range algs {
			fmt.Fprintf(&b, " %*.3f", widths[i], row.Cells[a].value(m))
			if ranSTL && columns[a].su {
				fmt.Fprintf(&b, " %5.1f", row.Speedup(a, m))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the result as comma-separated values with both aggregations,
// for downstream plotting. Speedups are relative to the Seq/STL baseline;
// when that column was not run (an -algos subset) the speedup fields are
// left empty rather than recording a fictitious 0.
func (r *Result) CSV() string {
	var b strings.Builder
	b.WriteString("distribution,size,algorithm,avg_seconds,best_seconds,avg_speedup,best_speedup\n")
	for _, row := range r.Rows {
		for alg := Algorithm(0); alg < numAlgorithms; alg++ {
			if !row.Ran[alg] {
				continue
			}
			fmt.Fprintf(&b, "%s,%d,%s,%.6f,%.6f",
				row.Kind, row.Size, alg,
				row.Cells[alg].Avg, row.Cells[alg].Best)
			if row.Ran[SeqSTL] {
				fmt.Fprintf(&b, ",%.3f,%.3f\n", row.Speedup(alg, Avg), row.Speedup(alg, Best))
			} else {
				b.WriteString(",,\n")
			}
		}
	}
	return b.String()
}

// TableConfig returns the configuration reproducing one of the paper's ten
// tables. quick selects the reduced CI-friendly size grid; otherwise the
// sizes that fit this machine (FullSizes) are used. The aggregation mode of
// the published table is returned alongside.
func TableConfig(table int, quick bool) (Config, Mode, error) {
	sizes := FullSizes
	reps := 10
	if quick {
		sizes = QuickSizes
		reps = 3
	}
	base := Config{Reps: reps, Sizes: sizes, Seed: 42}
	var mode Mode
	switch table {
	case 1, 2:
		base.Name = fmt.Sprintf("Table %d: Quicksort, 8-core Intel Nehalem (p=8)", table)
		base.P, base.WithCilk = 8, true
	case 3, 4:
		base.Name = fmt.Sprintf("Table %d: Quicksort, 16-core AMD Opteron (p=16)", table)
		base.P, base.WithCilk = 16, false
	case 5, 6:
		base.Name = fmt.Sprintf("Table %d: Quicksort, 32-core Intel Nehalem EX (p=32)", table)
		base.P, base.WithCilk = 32, true
	case 7, 8:
		base.Name = fmt.Sprintf("Table %d: Quicksort, Sun T2+ with 32 threads (p=32)", table)
		base.P, base.WithCilk = 32, false
	case 9, 10:
		base.Name = fmt.Sprintf("Table %d: Quicksort, Sun T2+ with 64 threads (p=64)", table)
		base.P, base.WithCilk = 64, false
	default:
		return Config{}, 0, fmt.Errorf("harness: no such table %d (paper has 1–10)", table)
	}
	if table%2 == 1 {
		mode = Avg
	} else {
		mode = Best
	}
	return base, mode, nil
}
