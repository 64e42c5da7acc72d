package dist

import (
	"fmt"
	"sort"
	"strings"
)

// Kind identifies one registered input distribution.
type Kind int

// The paper's four distributions (§5, Helman–Bader–JáJá) followed by the
// additional scenario kinds. New kinds added to the registry are picked up
// automatically by everything iterating Kinds: the harness row groups and
// the sorting and distribution test suites.
const (
	Random Kind = iota
	Gauss
	Buckets
	Staggered
	Zero
	Sorted
	Reverse
	RandDup
	WorstCase
	numKinds
)

// spec is one registry entry. draws is the exact number of RNG draws each
// element consumes; Fill relies on it to seek the stream in O(1), so a
// generator must consume exactly draws·(hi−lo) values for a [lo, hi) range.
type spec struct {
	name    string
	aliases []string
	doc     string
	draws   int
	fill    func(dst []int32, off, n int, rng *RNG, p int)
}

// Canonical names are capitalized like the paper's table row labels; Parse
// is case-insensitive, so command-line flags accept "random" etc.
var registry = [numKinds]spec{
	Random:    {name: "Random", aliases: []string{"uniform", "u"}, doc: "uniform values in [0, 2³¹)", draws: 1, fill: fillRandom},
	Gauss:     {name: "Gauss", aliases: []string{"gaussian", "g"}, doc: "average of four uniform values", draws: 4, fill: fillGauss},
	Buckets:   {name: "Buckets", aliases: []string{"bucket", "b"}, doc: "p blocks pre-bucketed into p subranges", draws: 1, fill: fillBuckets},
	Staggered: {name: "Staggered", aliases: []string{"stagger", "s"}, doc: "p blocks in staggered subrange order", draws: 1, fill: fillStaggered},
	Zero:      {name: "Zero", aliases: []string{"z"}, doc: "constant zero keys (zero entropy)", draws: 0, fill: fillZero},
	Sorted:    {name: "Sorted", aliases: []string{"asc"}, doc: "already sorted ascending over [0, 2³¹)", draws: 0, fill: fillSorted},
	Reverse:   {name: "Reverse", aliases: []string{"desc", "reversed"}, doc: "sorted descending over [0, 2³¹)", draws: 0, fill: fillReverse},
	RandDup:   {name: "RandDup", aliases: []string{"dup", "duplicates"}, doc: "uniform draws from 1024 distinct keys", draws: 1, fill: fillRandDup},
	WorstCase: {name: "WorstCase", aliases: []string{"worst", "organpipe", "pipe"}, doc: "pipe-organ ascend/descend pattern", draws: 0, fill: fillWorstCase},
}

// Kinds lists every registered distribution in registry order. Callers
// iterate it to cover all kinds; do not mutate.
var Kinds = func() []Kind {
	ks := make([]Kind, 0, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		ks = append(ks, k)
	}
	return ks
}()

// parseTable maps every lower-case name and alias to its Kind.
var parseTable = func() map[string]Kind {
	m := make(map[string]Kind)
	for k := Kind(0); k < numKinds; k++ {
		m[strings.ToLower(registry[k].name)] = k
		for _, a := range registry[k].aliases {
			m[strings.ToLower(a)] = k
		}
	}
	return m
}()

// String returns the canonical name of the distribution.
func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return registry[k].name
}

// Doc returns a one-line description of the distribution.
func (k Kind) Doc() string {
	if k < 0 || k >= numKinds {
		return ""
	}
	return registry[k].doc
}

// Valid reports whether k names a registered distribution.
func (k Kind) Valid() bool { return k >= 0 && k < numKinds }

// Parse resolves a distribution name (or alias), case-insensitively.
func Parse(s string) (Kind, error) {
	if k, ok := parseTable[strings.ToLower(strings.TrimSpace(s))]; ok {
		return k, nil
	}
	names := make([]string, 0, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		names = append(names, registry[k].name)
	}
	sort.Strings(names)
	return 0, fmt.Errorf("dist: unknown distribution %q (want one of %s)",
		s, strings.Join(names, "|"))
}
