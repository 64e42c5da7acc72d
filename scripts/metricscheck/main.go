// Command metricscheck scrapes a Prometheus text-exposition endpoint and
// validates it: every line must match the exposition grammar (HELP, TYPE,
// or a sample with optional labels and a float value), every sample must
// belong to a family declared by an earlier TYPE line, and every metric
// name listed via -require must appear as a sample. Any violation exits
// nonzero with the offending line — the check.sh smoke runs it against a
// live cmd/throughput -metrics-addr run.
//
// With -monotonic d the endpoint is scraped a second time d later and every
// *_total series must not have decreased — the scrape-delta rate convention
// (delta of a counter divided by the delta of repro_uptime_seconds) only
// works over counters that never go backwards.
//
// Usage:
//
//	metricscheck -retry 5s -require name1,name2 http://127.0.0.1:9090/metrics
//	metricscheck -monotonic 1s http://127.0.0.1:9090/metrics
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"time"
)

var (
	helpRe   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .*$`)
	typeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (\+Inf|-Inf|NaN|[0-9eE.+-]+)$`)
)

func main() {
	retry := flag.Duration("retry", 5*time.Second, "keep retrying a failing scrape up to this long")
	require := flag.String("require", "", "comma-separated metric names that must appear as samples")
	monotonic := flag.Duration("monotonic", 0, "scrape again this much later and fail if any *_total series decreased")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: metricscheck [-retry d] [-require a,b,c] URL")
		os.Exit(2)
	}
	url := flag.Arg(0)

	body, err := scrape(url, *retry)
	if err != nil {
		fail("scrape %s: %v", url, err)
	}
	if !strings.HasSuffix(body, "\n") {
		fail("exposition does not end in a newline")
	}

	typed := map[string]bool{}
	seen := map[string]bool{}
	for i, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if !helpRe.MatchString(line) {
				fail("line %d: malformed HELP: %q", i+1, line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			m := typeRe.FindStringSubmatch(line)
			if m == nil {
				fail("line %d: malformed TYPE: %q", i+1, line)
			}
			typed[m[1]] = true
		case strings.HasPrefix(line, "#"):
			// Arbitrary comments are legal in the format; the registry never
			// emits them, but do not fail a scrape over one.
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				fail("line %d: malformed sample: %q", i+1, line)
			}
			name := m[1]
			seen[name] = true
			if !typed[name] && !typed[familyOf(name)] {
				fail("line %d: sample %q has no preceding TYPE", i+1, name)
			}
		}
	}
	if len(seen) == 0 {
		fail("no samples in exposition")
	}
	if *require != "" {
		for _, want := range strings.Split(*require, ",") {
			if want = strings.TrimSpace(want); want != "" && !seen[want] {
				fail("required metric %q missing from scrape", want)
			}
		}
	}
	if *monotonic > 0 {
		time.Sleep(*monotonic)
		body2, err := scrape(url, *retry)
		if err != nil {
			fail("second scrape %s: %v", url, err)
		}
		first, second := parseSamples(body), parseSamples(body2)
		checked := 0
		for key, v1 := range first {
			name := key
			if i := strings.IndexByte(key, '{'); i >= 0 {
				name = key[:i]
			}
			if !strings.HasSuffix(name, "_total") {
				continue
			}
			v2, ok := second[key]
			if !ok {
				fail("monotonic: counter series %q vanished between scrapes", key)
			}
			if v2 < v1 {
				fail("monotonic: counter %q decreased between scrapes: %v -> %v", key, v1, v2)
			}
			checked++
		}
		if checked == 0 {
			fail("monotonic: no *_total series to check")
		}
		fmt.Printf("metricscheck: monotonic OK (%d counter series)\n", checked)
	}
	fmt.Printf("metricscheck: OK (%d series names)\n", len(seen))
}

// parseSamples extracts every sample line as series-key (name plus label
// set) to value. Lines that do not parse are skipped — the grammar pass has
// already validated the exposition.
func parseSamples(body string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		out[m[1]+m[2]] = v
	}
	return out
}

// familyOf strips the histogram sample suffixes.
func familyOf(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base := strings.TrimSuffix(name, suf); base != name {
			return base
		}
	}
	return name
}

// scrape GETs url, retrying (the target may still be binding its port)
// until the deadline.
func scrape(url string, retry time.Duration) (string, error) {
	deadline := time.Now().Add(retry)
	for {
		resp, err := http.Get(url)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK {
				return string(body), nil
			}
			err = fmt.Errorf("status %d (read err %v)", resp.StatusCode, rerr)
		}
		if time.Now().After(deadline) {
			return "", err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "metricscheck: FAIL: "+format+"\n", args...)
	os.Exit(1)
}
