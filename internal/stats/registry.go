package stats

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// Registry collects named metrics — func-backed counters and gauges, and
// Histograms — and renders them in the Prometheus text exposition format
// (version 0.0.4), with no external dependencies. Metrics are read at scrape time: registering a counter
// means handing the registry a closure over the live atomic it reports, so
// registration adds nothing to any hot path.
//
// Families render in registration order (HELP and TYPE once per name, then
// one sample line per series), so the output is deterministic and golden-
// testable. Registration panics on invalid names, duplicate series, or a
// name reused with a different kind/help — all programmer errors.
// Registration and rendering are safe for concurrent use.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*family
	fams   []*family
}

// Label is one name="value" pair of a metric series.
type Label struct {
	Name, Value string
}

type series struct {
	labels []Label
	value  func() float64
	hist   *Histogram
}

type family struct {
	name, help, kind string
	series           []*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// CounterFunc registers a monotonically increasing metric read from fn at
// scrape time. labels may be nil.
func (r *Registry) CounterFunc(name, help string, labels []Label, fn func() float64) {
	r.register(name, help, "counter", &series{labels: labels, value: fn})
}

// GaugeFunc registers a point-in-time metric read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels []Label, fn func() float64) {
	r.register(name, help, "gauge", &series{labels: labels, value: fn})
}

// Histogram registers h as one series of a histogram family; the rendered
// form is the usual name_bucket{le=...} cumulative buckets plus name_sum
// and name_count.
func (r *Registry) Histogram(name, help string, labels []Label, h *Histogram) {
	r.register(name, help, "histogram", &series{labels: labels, hist: h})
}

// register adds s to the family name, creating the family on first use and
// enforcing that a reused name keeps its kind and help.
func (r *Registry) register(name, help, kind string, s *series) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("stats: invalid metric name %q", name))
	}
	for _, l := range s.labels {
		if !validLabelName(l.Name) {
			panic(fmt.Sprintf("stats: invalid label name %q on metric %q", l.Name, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.fams = append(r.fams, f)
	} else if f.kind != kind || f.help != help {
		panic(fmt.Sprintf("stats: metric %q re-registered with different kind or help", name))
	}
	for _, o := range f.series {
		if sameLabels(o.labels, s.labels) {
			panic(fmt.Sprintf("stats: duplicate series %s%s", name, labelString(s.labels)))
		}
	}
	f.series = append(f.series, s)
}

// WriteText renders the registry in the Prometheus text exposition format.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, f := range r.fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			if s.hist != nil {
				writeHistogram(&b, f.name, s.labels, s.hist.Snapshot())
				continue
			}
			writeSample(&b, f.name, s.labels, s.value())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Render returns the text exposition as a string.
func (r *Registry) Render() string {
	var b strings.Builder
	r.WriteText(&b) //nolint:errcheck — Builder writes cannot fail
	return b.String()
}

// ServeHTTP makes the registry a /metrics handler.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.WriteText(w) //nolint:errcheck — nothing to do about a dead client
}

// Values flattens the registry into a map for JSON dumps (the
// scheduler_metrics block of cmd/throughput's report): scalar series map from
// "name" or `name{k="v"}` to their value; histograms contribute _count,
// _sum, and conservative nearest-rank p50/p90/p99 upper-bound estimates
// instead of their full bucket vectors.
func (r *Registry) Values() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]float64{}
	for _, f := range r.fams {
		for _, s := range f.series {
			ls := labelString(s.labels)
			if s.hist == nil {
				out[f.name+ls] = s.value()
				continue
			}
			snap := s.hist.Snapshot()
			out[f.name+"_count"+ls] = float64(snap.Count)
			out[f.name+"_sum"+ls] = snap.Sum
			for _, p := range [...]float64{50, 90, 99} {
				out[fmt.Sprintf("%s_p%.0f%s", f.name, p, ls)] = snap.Percentile(p)
			}
		}
	}
	return out
}

func writeSample(b *strings.Builder, name string, labels []Label, v float64) {
	b.WriteString(name)
	b.WriteString(labelString(labels))
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
}

// writeHistogram renders the cumulative le-buckets, sum, and count of one
// histogram series.
func writeHistogram(b *strings.Builder, name string, labels []Label, s HistSnapshot) {
	var cum uint64
	le := make([]Label, len(labels)+1)
	copy(le, labels)
	for i := 0; i < HistBuckets; i++ {
		cum += s.Counts[i]
		bound := "+Inf"
		if i < HistBuckets-1 {
			bound = formatValue(histBound(i))
		}
		le[len(labels)] = Label{Name: "le", Value: bound}
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, labelString(le), cum)
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labelString(labels), formatValue(s.Sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labelString(labels), s.Count)
}

func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelValueEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabelValue(s string) string { return labelValueEscaper.Replace(s) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':':
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_':
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

func sameLabels(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
