package dist

import (
	"math"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	if len(Kinds) != int(numKinds) {
		t.Fatalf("Kinds has %d entries, registry %d", len(Kinds), numKinds)
	}
	seen := map[string]Kind{}
	for _, k := range Kinds {
		sp := registry[k]
		if sp.name == "" || sp.fill == nil || sp.doc == "" {
			t.Fatalf("%v: incomplete registry entry %+v", int(k), sp)
		}
		if prev, dup := seen[sp.name]; dup {
			t.Fatalf("name %q registered for both %v and %v", sp.name, prev, k)
		}
		seen[sp.name] = k
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, k := range Kinds {
		got, err := Parse(k.String())
		if err != nil || got != k {
			t.Fatalf("Parse(%q) = %v, %v", k.String(), got, err)
		}
		for _, variant := range []string{
			strings.ToLower(k.String()),
			"  " + strings.ToUpper(k.String()) + " ",
		} {
			if got, err := Parse(variant); err != nil || got != k {
				t.Fatalf("case/space-insensitive Parse(%q) = %v, %v", variant, got, err)
			}
		}
	}
	for _, alias := range []struct {
		s string
		k Kind
	}{{"uniform", Random}, {"g", Gauss}, {"bucket", Buckets}, {"stagger", Staggered},
		{"desc", Reverse}, {"organpipe", WorstCase}} {
		if got, err := Parse(alias.s); err != nil || got != alias.k {
			t.Fatalf("Parse(%q) = %v, %v; want %v", alias.s, got, err, alias.k)
		}
	}
	if _, err := Parse("nope"); err == nil {
		t.Fatal("Parse of unknown name succeeded")
	}
	if _, err := Parse(""); err == nil {
		t.Fatal("Parse of empty name succeeded")
	}
}

func TestStringUnregistered(t *testing.T) {
	if s := Kind(-1).String(); s != "Kind(-1)" {
		t.Fatalf("Kind(-1).String() = %q", s)
	}
	if Kind(977).Valid() {
		t.Fatal("Kind(977) claims to be valid")
	}
}

func TestGenerateDeterminism(t *testing.T) {
	for _, k := range Kinds {
		a := Generate(k, 10_000, 42)
		b := Generate(k, 10_000, 42)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: index %d differs across identical calls: %d != %d", k, i, a[i], b[i])
			}
		}
		c := Generate(k, 10_000, 43)
		if k.draws() > 0 { // deterministic kinds ignore the seed
			same := 0
			for i := range a {
				if a[i] == c[i] {
					same++
				}
			}
			if same > len(a)/10 {
				t.Fatalf("%v: seeds 42 and 43 agree on %d/%d values", k, same, len(a))
			}
		}
	}
}

func (k Kind) draws() int { return registry[k].draws }

func TestGenerateEdgeSizes(t *testing.T) {
	for _, k := range Kinds {
		for _, n := range []int{0, 1, 2, 3, 7, 63} {
			vs := Generate(k, n, 1)
			if len(vs) != n {
				t.Fatalf("%v: len = %d, want %d", k, len(vs), n)
			}
			for i, v := range vs {
				if v < 0 {
					t.Fatalf("%v n=%d: negative value %d at %d", k, n, v, i)
				}
			}
		}
		if got := Generate(k, -5, 1); len(got) != 0 {
			t.Fatalf("%v: Generate with negative n returned %d values", k, len(got))
		}
	}
}

// TestGeneratePConsistency: Generate must equal GenerateP with DefaultP,
// and arbitrary (even degenerate) block parameters must stay in range.
func TestGeneratePConsistency(t *testing.T) {
	for _, k := range Kinds {
		a := Generate(k, 5000, 7)
		b := GenerateP(k, 5000, 7, DefaultP)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: Generate != GenerateP(DefaultP) at %d", k, i)
			}
		}
		z := GenerateP(k, 5000, 7, 0) // p<1 selects DefaultP
		for i := range a {
			if a[i] != z[i] {
				t.Fatalf("%v: GenerateP(p=0) != Generate at %d", k, i)
			}
		}
		for _, p := range []int{1, 2, 3, 16, 64, 5000, 100_000} {
			vs := GenerateP(k, 5000, 7, p)
			for i, v := range vs {
				if v < 0 {
					t.Fatalf("%v p=%d: negative value %d at %d", k, p, v, i)
				}
			}
		}
	}
}

// TestFillPositional: filling arbitrary disjoint subranges must reproduce
// the sequential Generate output bit for bit — the invariant parallel
// generation is built on.
func TestFillPositional(t *testing.T) {
	const n = 40_000
	for _, k := range Kinds {
		for _, p := range []int{DefaultP, 5} {
			want := GenerateP(k, n, 99, p)
			got := make([]int32, n)
			// Uneven cuts, including block-misaligned ones.
			cuts := []int{0, 1, 17, 1000, 1001, 16384, 16385, 39_999, n}
			for c := 0; c+1 < len(cuts); c++ {
				lo, hi := cuts[c], cuts[c+1]
				Fill(k, got[lo:hi], lo, n, 99, p)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%v p=%d: positional fill differs at %d: %d != %d",
						k, p, i, want[i], got[i])
				}
			}
		}
	}
}

func TestFillPanics(t *testing.T) {
	for _, bad := range []func(){
		func() { Fill(Kind(99), make([]int32, 1), 0, 1, 0, 0) },
		func() { Fill(Random, make([]int32, 10), 5, 10, 0, 0) }, // off+len > n
		func() { Fill(Random, make([]int32, 1), -1, 1, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("Fill accepted invalid arguments")
				}
			}()
			bad()
		}()
	}
}

// stat computes the summary statistics the distribution tests assert on.
func stat(vs []int32) (min, max int32, mean, sd float64) {
	min, max = math.MaxInt32, math.MinInt32
	var sum float64
	for _, v := range vs {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		sum += float64(v)
	}
	mean = sum / float64(len(vs))
	var varsum float64
	for _, v := range vs {
		d := float64(v) - mean
		varsum += d * d
	}
	return min, max, mean, math.Sqrt(varsum / float64(len(vs)))
}

// TestStatisticalSanity pins the per-kind summary statistics to the bounds
// the Helman–Bader–JáJá definitions imply.
func TestStatisticalSanity(t *testing.T) {
	const n = 200_000
	full := float64(keyRange)         // 2³¹
	uniformSD := full / math.Sqrt(12) // sd of U[0, 2³¹)

	check := func(k Kind, cond bool, format string, args ...any) {
		t.Helper()
		if !cond {
			t.Errorf("%v: "+format, append([]any{k}, args...)...)
		}
	}
	for _, k := range Kinds {
		vs := Generate(k, n, 42)
		min, max, mean, sd := stat(vs)
		switch k {
		case Random:
			check(k, mean > 0.49*full && mean < 0.51*full, "mean %.3g", mean)
			check(k, sd > 0.95*uniformSD && sd < 1.05*uniformSD, "sd %.3g", sd)
			check(k, float64(min) < 0.001*full && float64(max) > 0.999*full,
				"range [%d, %d]", min, max)
		case Gauss:
			check(k, mean > 0.49*full && mean < 0.51*full, "mean %.3g", mean)
			// Averaging 4 uniforms halves the sd.
			check(k, sd > 0.45*uniformSD && sd < 0.55*uniformSD, "sd %.3g", sd)
		case Buckets, Staggered:
			// Permutations of equal uniform subranges: uniform aggregate stats.
			check(k, mean > 0.48*full && mean < 0.52*full, "mean %.3g", mean)
			check(k, sd > 0.9*uniformSD && sd < 1.1*uniformSD, "sd %.3g", sd)
		case Zero:
			check(k, min == 0 && max == 0, "range [%d, %d]", min, max)
		case Sorted, Reverse:
			check(k, mean > 0.49*full && mean < 0.51*full, "mean %.3g", mean)
			check(k, min == 0 && float64(max) > 0.999*full, "range [%d, %d]", min, max)
		case RandDup:
			distinct := map[int32]bool{}
			for _, v := range vs {
				distinct[v] = true
			}
			check(k, len(distinct) == 1024, "%d distinct keys, want 1024", len(distinct))
		case WorstCase:
			check(k, min == 0 && float64(max) > 0.99*full, "range [%d, %d]", min, max)
			// Pipe organ: symmetric around the midpoint.
			check(k, vs[0] == vs[n-1] && vs[n/4] == vs[n-1-n/4], "not symmetric")
		}
	}
}

// TestOrderedKinds pins the monotone shapes.
func TestOrderedKinds(t *testing.T) {
	const n = 10_000
	sorted := Generate(Sorted, n, 1)
	rev := Generate(Reverse, n, 1)
	worst := Generate(WorstCase, n, 1)
	for i := 1; i < n; i++ {
		if sorted[i] < sorted[i-1] {
			t.Fatalf("Sorted decreases at %d", i)
		}
		if rev[i] > rev[i-1] {
			t.Fatalf("Reverse increases at %d", i)
		}
		if i < n/2 && worst[i] < worst[i-1] {
			t.Fatalf("WorstCase decreases at %d before the midpoint", i)
		}
		if i > n/2 && worst[i] > worst[i-1] {
			t.Fatalf("WorstCase increases at %d after the midpoint", i)
		}
		if sorted[i] != rev[n-1-i] {
			t.Fatalf("Reverse is not the mirror of Sorted at %d", i)
		}
	}
}

// TestBucketsStructure: within each of the p blocks, runs of n/p² elements
// must come from successive equal subranges.
func TestBucketsStructure(t *testing.T) {
	const n, p = 6400, 4 // blockSize 1600, subSize 400
	vs := GenerateP(Buckets, n, 3, p)
	width := int64(keyRange / p)
	for i, v := range vs {
		j := int64((i % (n / p)) / (n / (p * p)))
		if j > p-1 {
			j = p - 1
		}
		if int64(v) < j*width || int64(v) >= (j+1)*width {
			t.Fatalf("index %d: value %d outside subrange %d", i, v, j)
		}
	}
}

// TestStaggeredStructure: block i draws from subrange 2i+1 (i < p/2) or
// 2i−p (i ≥ p/2).
func TestStaggeredStructure(t *testing.T) {
	const n, p = 8000, 8
	vs := GenerateP(Staggered, n, 3, p)
	width := int64(keyRange / p)
	for i, v := range vs {
		ib := i / (n / p)
		bucket := int64(2*ib - p)
		if ib < p/2 {
			bucket = int64(2*ib + 1)
		}
		if int64(v) < bucket*width || int64(v) >= (bucket+1)*width {
			t.Fatalf("index %d (block %d): value %d outside subrange %d", i, ib, v, bucket)
		}
	}
}
