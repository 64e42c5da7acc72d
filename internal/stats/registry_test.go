package stats

import (
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// goldenRegistry builds a registry with fully deterministic values: static
// closures, one single-shard histogram, and a label value that needs
// escaping.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.CounterFunc("test_requests_total", "Requests served.", nil, func() float64 { return 42 })
	r.GaugeFunc("test_queue_depth", "Depth of the inject queue.", []Label{{"queue", "inject"}}, func() float64 { return 3 })
	r.GaugeFunc("test_queue_depth", "Depth of the inject queue.", []Label{{"queue", "local"}}, func() float64 { return 0.5 })
	h := NewHistogram(1)
	h.Observe(0, 0.5e-6)
	h.Observe(0, 3e-3)
	h.ObserveN(0, 2.5, 2)
	h.Observe(0, 100)
	r.Histogram("test_latency_seconds", "Sort latency.", nil, h)
	r.GaugeFunc("test_group_pending", "Pending per group.", []Label{{"group", `a"b\c`}}, func() float64 { return 1 })
	return r
}

// goldenExposition pins the exact rendered text: registration order, HELP
// and TYPE lines, cumulative le-buckets over the full fixed boundary table,
// and label escaping. Any change to the exposition format shows up as a diff
// here.
const goldenExposition = `# HELP test_requests_total Requests served.
# TYPE test_requests_total counter
test_requests_total 42
# HELP test_queue_depth Depth of the inject queue.
# TYPE test_queue_depth gauge
test_queue_depth{queue="inject"} 3
test_queue_depth{queue="local"} 0.5
# HELP test_latency_seconds Sort latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="9.5367431640625e-07"} 1
test_latency_seconds_bucket{le="1.9073486328125e-06"} 1
test_latency_seconds_bucket{le="3.814697265625e-06"} 1
test_latency_seconds_bucket{le="7.62939453125e-06"} 1
test_latency_seconds_bucket{le="1.52587890625e-05"} 1
test_latency_seconds_bucket{le="3.0517578125e-05"} 1
test_latency_seconds_bucket{le="6.103515625e-05"} 1
test_latency_seconds_bucket{le="0.0001220703125"} 1
test_latency_seconds_bucket{le="0.000244140625"} 1
test_latency_seconds_bucket{le="0.00048828125"} 1
test_latency_seconds_bucket{le="0.0009765625"} 1
test_latency_seconds_bucket{le="0.001953125"} 1
test_latency_seconds_bucket{le="0.00390625"} 2
test_latency_seconds_bucket{le="0.0078125"} 2
test_latency_seconds_bucket{le="0.015625"} 2
test_latency_seconds_bucket{le="0.03125"} 2
test_latency_seconds_bucket{le="0.0625"} 2
test_latency_seconds_bucket{le="0.125"} 2
test_latency_seconds_bucket{le="0.25"} 2
test_latency_seconds_bucket{le="0.5"} 2
test_latency_seconds_bucket{le="1"} 2
test_latency_seconds_bucket{le="2"} 2
test_latency_seconds_bucket{le="4"} 4
test_latency_seconds_bucket{le="8"} 4
test_latency_seconds_bucket{le="16"} 4
test_latency_seconds_bucket{le="32"} 4
test_latency_seconds_bucket{le="64"} 4
test_latency_seconds_bucket{le="+Inf"} 5
test_latency_seconds_sum 105.0030005
test_latency_seconds_count 5
# HELP test_group_pending Pending per group.
# TYPE test_group_pending gauge
test_group_pending{group="a\"b\\c"} 1
`

func TestRegistryGolden(t *testing.T) {
	got := goldenRegistry().Render()
	if got != goldenExposition {
		t.Fatalf("exposition drifted from golden.\ngot:\n%s\nwant:\n%s", got, goldenExposition)
	}
}

// Exposition grammar of the subset the registry emits.
var (
	helpRe   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) (.*)$`)
	typeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (\+Inf|-Inf|NaN|[0-9eE.+-]+)$`)
)

// expoSample is one parsed sample line.
type expoSample struct {
	name   string // with _bucket/_sum/_count suffix intact
	labels string // raw label string incl. braces, "" if none
	value  float64
}

// parseExposition is the minimal parser of the round-trip test: it
// validates every line against the grammar and returns the samples plus the
// TYPE of every declared family.
func parseExposition(t *testing.T, text string) (samples []expoSample, types map[string]string) {
	t.Helper()
	types = map[string]string{}
	if !strings.HasSuffix(text, "\n") {
		t.Fatalf("exposition does not end in a newline")
	}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if !helpRe.MatchString(line) {
				t.Fatalf("malformed HELP line: %q", line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			m := typeRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if _, dup := types[m[1]]; dup {
				t.Fatalf("family %q typed twice", m[1])
			}
			types[m[1]] = m[2]
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("malformed sample line: %q", line)
			}
			v, err := strconv.ParseFloat(strings.Replace(m[3], "+Inf", "Inf", 1), 64)
			if err != nil {
				t.Fatalf("unparseable value in %q: %v", line, err)
			}
			samples = append(samples, expoSample{name: m[1], labels: m[2], value: v})
		}
	}
	return samples, types
}

// familyOf strips the histogram sample suffixes to recover the family name.
func familyOf(name string, types map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return name
}

// TestExpositionRoundTrip re-parses the rendered golden registry and checks
// the structural invariants scrape consumers rely on: every sample belongs
// to a typed family, histogram buckets are cumulative and end in a +Inf
// bucket equal to _count, and the parsed values match the registry's own
// Values view.
func TestExpositionRoundTrip(t *testing.T) {
	r := goldenRegistry()
	samples, types := parseExposition(t, r.Render())
	if len(types) != 4 {
		t.Fatalf("parsed %d families, want 4", len(types))
	}

	var buckets []expoSample
	var sum, count float64
	for _, s := range samples {
		fam := familyOf(s.name, types)
		if _, ok := types[fam]; !ok {
			t.Fatalf("sample %q has no TYPE declaration", s.name)
		}
		switch s.name {
		case "test_latency_seconds_bucket":
			buckets = append(buckets, s)
		case "test_latency_seconds_sum":
			sum = s.value
		case "test_latency_seconds_count":
			count = s.value
		}
	}
	if len(buckets) != HistBuckets {
		t.Fatalf("parsed %d buckets, want %d", len(buckets), HistBuckets)
	}
	leRe := regexp.MustCompile(`le="([^"]*)"`)
	prevLE := math.Inf(-1)
	prevCum := 0.0
	for i, b := range buckets {
		leStr := leRe.FindStringSubmatch(b.labels)[1]
		le, err := strconv.ParseFloat(strings.Replace(leStr, "+Inf", "Inf", 1), 64)
		if err != nil {
			t.Fatalf("bad le %q: %v", leStr, err)
		}
		if le <= prevLE {
			t.Fatalf("le boundaries not increasing at %d: %g after %g", i, le, prevLE)
		}
		if b.value < prevCum {
			t.Fatalf("bucket counts not cumulative at le=%q: %g after %g", leStr, b.value, prevCum)
		}
		prevLE, prevCum = le, b.value
	}
	if !math.IsInf(prevLE, 1) {
		t.Fatalf("last bucket le = %g, want +Inf", prevLE)
	}
	if prevCum != count {
		t.Fatalf("+Inf bucket %g != _count %g", prevCum, count)
	}

	vals := r.Values()
	if vals["test_requests_total"] != 42 ||
		vals[`test_queue_depth{queue="inject"}`] != 3 ||
		vals[`test_group_pending{group="a\"b\\c"}`] != 1 {
		t.Fatalf("Values mismatch: %v", vals)
	}
	if vals["test_latency_seconds_count"] != count || vals["test_latency_seconds_sum"] != sum {
		t.Fatalf("Values histogram count/sum disagree with exposition")
	}
	if got := vals["test_latency_seconds_p50"]; got != 4 {
		t.Fatalf("p50 estimate = %g, want 4 (upper bound of the 2.5s bucket)", got)
	}
	if got := vals["test_latency_seconds_p99"]; !math.IsInf(got, 1) {
		t.Fatalf("p99 estimate = %g, want +Inf (overflow bucket)", got)
	}
}

// TestRegistryRegistrationPanics pins the programmer-error surface:
// duplicate series, kind/help drift on a reused name, and invalid metric and
// label names all panic loudly at registration instead of corrupting the
// exposition.
func TestRegistryRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.CounterFunc("a_total", "A.", nil, func() float64 { return 0 })
	mustPanic("duplicate series", func() {
		r.CounterFunc("a_total", "A.", nil, func() float64 { return 0 })
	})
	mustPanic("kind mismatch", func() {
		r.GaugeFunc("a_total", "A.", nil, func() float64 { return 0 })
	})
	mustPanic("help mismatch", func() {
		r.CounterFunc("a_total", "Different.", []Label{{"x", "y"}}, func() float64 { return 0 })
	})
	mustPanic("invalid metric name", func() {
		r.CounterFunc("0bad", "B.", nil, func() float64 { return 0 })
	})
	mustPanic("invalid label name", func() {
		r.CounterFunc("b_total", "B.", []Label{{"0x", "y"}}, func() float64 { return 0 })
	})
}
