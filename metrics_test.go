package repro

import (
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRuntimeMetrics runs sorts through a Runtime and checks its registry
// reports them: per-algorithm latency histograms and request counters move,
// the per-group pending gauges drain back to zero, and the scheduler
// families ride along in the same exposition.
func TestRuntimeMetrics(t *testing.T) {
	rt := NewRuntime[int32](Options{P: 2})
	defer rt.Close()
	data := GenerateInput(Random, 20000, 1)
	rt.SortMixedMode(append([]int32(nil), data...), MMOptions{})
	rt.SortForkJoin(append([]int32(nil), data...))
	rt.SortMany([]SortRequest[int32]{
		{Data: append([]int32(nil), data...), Algo: AlgoSamplesort},
		{Data: append([]int32(nil), data...), Algo: AlgoMergeMixedMode},
		{Data: append([]int32(nil), data...), Algo: AlgoMixedMode},
	}, BatchOptions{})

	vals := rt.Metrics().Values()
	for algo, want := range map[string]float64{
		"mmpar": 2, "fork": 1, "ssort": 1, "msort": 1,
	} {
		if got := vals[`repro_sorts_total{algo="`+algo+`"}`]; got != want {
			t.Fatalf("sorts_total{algo=%q} = %v, want %v", algo, got, want)
		}
		if got := vals[`repro_sort_latency_seconds_count{algo="`+algo+`"}`]; got != want {
			t.Fatalf("latency count{algo=%q} = %v, want %v", algo, got, want)
		}
		if got := vals[`repro_sort_latency_seconds_sum{algo="`+algo+`"}`]; got <= 0 {
			t.Fatalf("latency sum{algo=%q} = %v, want > 0", algo, got)
		}
		if got := vals[`repro_group_pending_sorts{group="`+algo+`"}`]; got != 0 {
			t.Fatalf("pending_sorts{group=%q} = %v after drain, want 0", algo, got)
		}
	}
	if got := vals["repro_sched_tasks_total"]; got <= 0 {
		t.Fatalf("scheduler families missing from Runtime registry (tasks_total = %v)", got)
	}

	out := rt.Metrics().Render()
	for _, want := range []string{
		"# TYPE repro_sort_latency_seconds histogram",
		`repro_sort_latency_seconds_bucket{algo="mmpar",le="+Inf"} 2`,
		`repro_group_pending_sorts{group="fork"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition lacks %q:\n%s", want, out)
		}
	}
	if rt.Metrics() != rt.Metrics() {
		t.Fatal("Metrics() not cached")
	}
}

// TestServeMetrics exercises the HTTP surface: an ephemeral-port server
// with no registry answers 503, SetRegistry swaps one in live, /metrics
// returns the versioned content type with well-formed content, and Close
// releases the port.
func TestServeMetrics(t *testing.T) {
	srv, err := ServeMetrics("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func() (int, string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL())
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
	}

	if code, _, _ := get(); code != http.StatusServiceUnavailable {
		t.Fatalf("no-registry status = %d, want 503", code)
	}

	rt := NewRuntime[int32](Options{P: 2})
	defer rt.Close()
	rt.SortForkJoin(GenerateInput(Random, 4096, 2))
	srv.SetRegistry(rt.Metrics())

	code, ctype, body := get()
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if want := "text/plain; version=0.0.4; charset=utf-8"; ctype != want {
		t.Fatalf("content type = %q, want %q", ctype, want)
	}
	for _, want := range []string{
		`repro_sorts_total{algo="fork"} 1`,
		"repro_sched_workers 2",
		"repro_admission_injected_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("scrape lacks %q:\n%s", want, body)
		}
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := http.Get(srv.URL()); err == nil {
		t.Fatal("server still answering after Close")
	}
}

// TestMetricsLiveScrape scrapes /metrics over HTTP while sorts and filters
// run: the exposition must carry a series of every family metrics.txt pins,
// and every *_total counter must be monotone between two reads, which the
// scrape-delta rate convention (Δcounter / Δrepro_uptime_seconds) relies on. The exposition grammar is TestExpositionRoundTrip's job, and
// names are validated when they are registered.
func TestMetricsLiveScrape(t *testing.T) {
	rt := NewRuntime[int32](Options{P: 2})
	defer rt.Close()
	rt.StartProfiler(199)
	defer rt.StopProfiler()
	srv, err := ServeMetrics("127.0.0.1:0", rt.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		dst := make([]int32, 20000)
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rt.SortMixedMode(GenerateInput(Random, 20000, i), MMOptions{})
			rt.SortForkJoin(GenerateInput(Random, 20000, i))
			rt.Filter(GenerateInput(Random, 20000, i), dst, func(v int32) bool { return v&1 == 0 })
		}
	}()
	defer func() { close(stop); <-done }()

	resp, err := http.Get(srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d, %v", resp.StatusCode, err)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		seen[line[:strings.IndexAny(line, "{ ")]] = true
	}
	pinned, err := os.ReadFile("metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(pinned), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || f[1] != "TYPE" {
			continue
		}
		if want := f[2]; !seen[want] && !seen[want+"_bucket"] {
			t.Errorf("scrape lacks %s", want)
		}
	}

	first := rt.Metrics().Values()
	time.Sleep(200 * time.Millisecond)
	second := rt.Metrics().Values()
	checked := 0
	for key, v1 := range first {
		if name, _, _ := strings.Cut(key, "{"); !strings.HasSuffix(name, "_total") {
			continue
		}
		checked++
		if v2, ok := second[key]; !ok {
			t.Errorf("counter %s vanished between reads", key)
		} else if v2 < v1 {
			t.Errorf("counter %s decreased between reads: %v -> %v", key, v1, v2)
		}
	}
	if checked == 0 {
		t.Fatal("no *_total series to check")
	}
}

// TestMetricsConcurrentScrapes hammers the registry from concurrent sorts
// and scrapes — under -race this checks the whole read path (histograms,
// dynamic gauges, counter closures over live atomics) against live writers.
func TestMetricsConcurrentScrapes(t *testing.T) {
	rt := NewRuntime[int32](Options{P: 2})
	defer rt.Close()
	reg := rt.Metrics()
	stop := make(chan struct{})
	var scrapers, sorters sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if out := reg.Render(); !strings.Contains(out, "repro_sort_latency_seconds") {
					t.Error("scrape lost the latency family")
					return
				}
			}
		}()
	}
	for c := 0; c < 3; c++ {
		sorters.Add(1)
		go func(c int) {
			defer sorters.Done()
			for i := 0; i < 4; i++ {
				rt.SortMixedMode(GenerateInput(Staggered, 20000, uint64(c*10+i)), MMOptions{})
			}
		}(c)
	}
	sorters.Wait()
	close(stop)
	scrapers.Wait()
}
