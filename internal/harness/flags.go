package harness

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/dist"
)

// This file is the single home of the flag vocabulary shared by the
// command-line harnesses (cmd/tables, cmd/throughput): the
// algorithm/size/distribution parsers live in harness.go, and the helpers
// below cover the remaining per-command copies — canonical flag names,
// distribution names for reports, the shared-scheduler algorithm subset, and
// the request-mix selector of cmd/throughput.

// FlagName returns the canonical lower-case -algos name of the column (the
// inverse of ParseAlgorithm on its primary spelling).
func (a Algorithm) FlagName() string {
	if a < 0 || a >= numAlgorithms {
		return fmt.Sprintf("algorithm%d", int(a))
	}
	return columns[a].flag
}

// KindNames returns the distribution names of ks.
func KindNames(ks []dist.Kind) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = k.String()
	}
	return out
}

// ParseSchedulerAlgorithms resolves a comma-separated -algos list
// restricted to the algorithms that run on the shared core scheduler (plus
// the sequential baseline) — the subset a multi-client Runtime can serve
// (cmd/throughput's sort mix).
func ParseSchedulerAlgorithms(csv string) ([]Algorithm, error) {
	as, err := ParseAlgorithms(csv)
	if err != nil {
		return nil, err
	}
	for _, a := range as {
		if !columns[a].shared {
			var want []string
			for _, c := range columns {
				if c.shared {
					want = append(want, c.flag)
				}
			}
			return nil, fmt.Errorf("harness: algorithm %v does not run on the shared scheduler (want %s)", a, strings.Join(want, "|"))
		}
	}
	return as, nil
}

// Mix selects the request mix of a multi-client throughput run; each has a
// Scenario table constructor in mixes.go.
type Mix int

const (
	MixSort      Mix = iota // SortMix: the Runtime Sort* methods
	MixAnalytics            // AnalyticsMix: the Runtime query operators
	MixAbandon              // AbandonMix: interactive sorts beside deadline-abandoned batches
)

var mixNames = [...]string{"sort", "analytics", "abandon"}

func (m Mix) String() string { return mixNames[m] }

// ParseMix resolves a -mix flag value, case-insensitively.
func ParseMix(s string) (Mix, error) {
	if i := slices.Index(mixNames[:], strings.ToLower(strings.TrimSpace(s))); i >= 0 {
		return Mix(i), nil
	}
	return 0, fmt.Errorf("harness: unknown mix %q (want %s)", s, strings.Join(mixNames[:], "|"))
}
