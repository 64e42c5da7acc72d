package harness

import (
	"reflect"
	"testing"

	"repro/internal/dist"
)

// TestFlagNameRoundTrip pins that every column's canonical flag name parses
// back to itself — the single shared vocabulary the commands rely on.
func TestFlagNameRoundTrip(t *testing.T) {
	for a := Algorithm(0); a < numAlgorithms; a++ {
		got, err := ParseAlgorithm(a.FlagName())
		if err != nil {
			t.Fatalf("ParseAlgorithm(%q): %v", a.FlagName(), err)
		}
		if got != a {
			t.Fatalf("ParseAlgorithm(%q) = %v, want %v", a.FlagName(), got, a)
		}
	}
}

func TestParseSchedulerAlgorithms(t *testing.T) {
	as, err := ParseSchedulerAlgorithms("seqstl, mmpar,ssort")
	if err != nil {
		t.Fatal(err)
	}
	if want := []Algorithm{SeqSTL, MMPar, SSort}; !reflect.DeepEqual(as, want) {
		t.Fatalf("got %v, want %v", as, want)
	}
	for _, bad := range []string{"cilk", "randfork", "mmpar,cilksample", "nope"} {
		if _, err := ParseSchedulerAlgorithms(bad); err == nil {
			t.Fatalf("ParseSchedulerAlgorithms(%q) accepted a non-shared algorithm", bad)
		}
	}
}

func TestParseMix(t *testing.T) {
	for s, want := range map[string]Mix{
		"sort": MixSort, " Sort ": MixSort,
		"analytics": MixAnalytics, "ANALYTICS": MixAnalytics,
		"abandon": MixAbandon,
	} {
		got, err := ParseMix(s)
		if err != nil {
			t.Fatalf("ParseMix(%q): %v", s, err)
		}
		if got != want {
			t.Fatalf("ParseMix(%q) = %v, want %v", s, got, want)
		}
	}
	for _, bad := range []string{"mixed", "", "sorts", "query", "cancel"} {
		if _, err := ParseMix(bad); err == nil {
			t.Fatalf("ParseMix(%q) accepted an unknown mix", bad)
		}
	}
	if MixSort.String() != "sort" || MixAnalytics.String() != "analytics" || MixAbandon.String() != "abandon" {
		t.Fatal("Mix.String labels changed")
	}
}

func TestNameHelpers(t *testing.T) {
	ks := []dist.Kind{dist.Random, dist.Staggered}
	if got := KindNames(ks); !reflect.DeepEqual(got, []string{"Random", "Staggered"}) {
		t.Fatalf("KindNames = %v", got)
	}
}
