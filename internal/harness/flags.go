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
// below cover the remaining per-command copies — canonical flag names, the
// "all" column set, distribution names for reports, the shared-scheduler
// algorithm subset, and the request-mix selector of cmd/throughput.

// FlagName returns the canonical lower-case -algos name of the column (the
// inverse of ParseAlgorithm on its primary spelling).
func (a Algorithm) FlagName() string {
	switch a {
	case SeqSTL:
		return "seqstl"
	case SeqQS:
		return "seqqs"
	case Fork:
		return "fork"
	case Randfork:
		return "randfork"
	case Cilk:
		return "cilk"
	case CilkSample:
		return "cilksample"
	case MMPar:
		return "mmpar"
	case SSort:
		return "ssort"
	case MSort:
		return "msort"
	default:
		return fmt.Sprintf("algorithm%d", int(a))
	}
}

// AllAlgorithms returns every algorithm column in table order. The slice is
// a copy.
func AllAlgorithms() []Algorithm {
	out := make([]Algorithm, numAlgorithms)
	for a := range out {
		out[a] = Algorithm(a)
	}
	return out
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
	shared := map[Algorithm]bool{
		SeqSTL: true, Fork: true, MMPar: true, SSort: true, MSort: true,
	}
	as, err := ParseAlgorithms(csv)
	if err != nil {
		return nil, err
	}
	for _, a := range as {
		if !shared[a] {
			return nil, fmt.Errorf("harness: algorithm %v does not run on the shared scheduler (want seqstl|fork|mmpar|ssort|msort)", a)
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
