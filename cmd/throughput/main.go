// Command throughput is the live multi-client process of this repository: C
// client goroutines issue requests drawn from a mix against ONE shared
// repro.Runtime, and the per-group quiescence of the scheduler lets all of
// them proceed concurrently. The client loop is internal/harness.Scenario
// and the three mixes are its table constructors (harness.SortMix,
// AnalyticsMix, AbandonMix — see there for what each issues and verifies);
// this command parses flags, generates the inputs, owns the Runtime with its
// metrics server, profiler and tracer, and reports requests/second, latency
// percentiles (overall and per label: algorithm column, analytics operator,
// or abandon-mix role) and the scheduler's admission-control counters as
// JSON on stdout, plus a human summary on stderr. scripts/check.sh runs it as
// end-to-end smokes; the numbers of record come from bench/run.sh.
//
// Admission control: -max-pending and -max-inject configure the scheduler's
// inject bounds (repro.Options.MaxPendingPerGroup / MaxInject), so a run can
// demonstrate backpressure: with clients ≫ p and a bound configured, peak
// pending injected tasks never exceed the bound.
//
// Observability: -trace-out f writes the run's execution trace as Chrome
// trace-event JSON (load in Perfetto or chrome://tracing). -profile-hz r runs the worker-state sampling profiler (the
// repro_worker_state_samples_total metric families). -metrics-addr serves
// the Runtime's registry at /metrics during the run and a bounded trace
// window at /debug/trace.
//
// Exit status: 1 if any result failed verification or no request completed,
// 2 on a bad flag.
//
// Usage:
//
//	throughput -clients 8 -duration 3s
//	throughput -clients 16 -sizes 65536,1048576 -dists random,staggered -algos mmpar,ssort
//	throughput -clients 64 -max-inject 16 -max-pending 2
//	throughput -mix analytics -clients 4 -sizes 65536 -dists random,randdup
//	throughput -mix abandon -clients 6 -abandon-after 3ms -sizes 16384,262144 -algos mmpar,msort
//	throughput -clients 4 -duration 1s -trace-out trace.json -profile-hz 199
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro"
	"repro/internal/dist/distpar"
	"repro/internal/harness"
	"repro/internal/stats"
)

func main() {
	var (
		p          = flag.Int("p", 0, "workers of the shared scheduler (default NumCPU)")
		clients    = flag.Int("clients", 8, "concurrent client goroutines")
		duration   = flag.Duration("duration", 3*time.Second, "measurement duration")
		sizesStr   = flag.String("sizes", "65536,262144,1048576", "request sizes (elements), comma-separated")
		distsStr   = flag.String("dists", "random,gauss,staggered", "input distributions, comma-separated")
		algosStr   = flag.String("algos", "mmpar,fork,ssort,msort", "algorithms of the sort and abandon mixes, comma-separated (seqstl|fork|mmpar|ssort|msort)")
		seed       = flag.Uint64("seed", 42, "input generator seed")
		maxPending = flag.Int("max-pending", 0, "admission bound per group (Options.MaxPendingPerGroup; 0 = unbounded)")
		maxInject  = flag.Int("max-inject", 0, "admission bound across all groups (Options.MaxInject; 0 = unbounded)")
		mAddr      = flag.String("metrics-addr", "", "serve Prometheus-style /metrics on this address during the run (e.g. 127.0.0.1:9090; empty = off)")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event JSON of the run to this file (empty = off)")
		profileHz  = flag.Float64("profile-hz", 0, "sample worker states at this rate during the run (0 = off)")
		mixStr     = flag.String("mix", "sort", "request mix: sort (Sort* requests) | analytics (filter/groupby/aggregate/topk/join/plan requests) | abandon (interactive sorts + deadline-abandoned batches)")
		abandonAft = flag.Duration("abandon-after", 4*time.Millisecond, "batch-client context deadline in the abandon mix")
	)
	flag.Parse()

	sizes := must(harness.ParseSizes(*sizesStr))
	kinds := must(harness.ParseKinds(*distsStr))
	mix := must(harness.ParseMix(*mixStr))
	algos := must(harness.ParseSchedulerAlgorithms(*algosStr))

	// Pre-generate every (distribution, size) input once, team-parallel on a
	// short-lived scheduler; the mixes copy from (or read) this pool, so
	// generation cost never pollutes the latencies.
	var inputs [][]int32
	gen := repro.NewScheduler(repro.Options{P: *p, Seed: *seed})
	for _, k := range kinds {
		for _, n := range sizes {
			inputs = append(inputs, distpar.Generate(gen, k, n, *seed+uint64(n)))
		}
	}
	gen.Shutdown()

	rt := repro.NewRuntime[int32](repro.Options{
		P:                  *p,
		Seed:               *seed,
		MaxPendingPerGroup: *maxPending,
		MaxInject:          *maxInject,
	})
	defer rt.Close()

	sc := harness.Scenario{Clients: *clients, Duration: *duration, Seed: *seed}
	switch mix {
	case harness.MixAnalytics:
		sc.Client = harness.AnalyticsMix(rt, inputs)
	case harness.MixAbandon:
		sc.Client = must(harness.AbandonMix(rt, inputs, algos, *abandonAft))
	default:
		sc.Client = harness.SortMix(rt, inputs, algos)
	}

	if *mAddr != "" {
		msrv := must(repro.ServeMetrics(*mAddr, rt.Metrics()))
		defer msrv.Close()
		msrv.SetTraceSource(rt.Scheduler())
		fmt.Fprintf(os.Stderr, "throughput: metrics listening on %s\n", msrv.Addr())
	}
	if *profileHz > 0 {
		rt.StartProfiler(*profileHz)
		defer rt.StopProfiler()
	}
	if *traceOut != "" {
		rt.StartTrace()
	}

	tally := sc.Run()

	if *traceOut != "" {
		rt.StopTrace()
		f := must(os.Create(*traceOut))
		if err := errors.Join(rt.WriteTrace(f), f.Close()); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "throughput: wrote Chrome trace to %s (%d events dropped to ring overflow)\n",
			*traceOut, rt.Scheduler().TraceDropped())
	}

	adm := rt.Scheduler().Admission()
	rep := report{
		ElapsedSeconds: tally.Elapsed.Seconds(),
		Requests:       tally.Requests,
		Failures:       tally.Failures,
		RequestsPerSec: float64(tally.Requests) / tally.Elapsed.Seconds(),
		PeakInflight:   tally.PeakInflight,
		Abandoned:      tally.Abandoned,
		Latency:        latencyOf(&tally.Latency),
		Admission:      admissionOf(adm),
		// Flattened registry dump (captured before rt.Close tears the
		// runtime down): scheduler counters, admission, per-group gauges,
		// and the per-algorithm latency histogram summaries.
		Metrics: rt.Metrics().Values(),
	}
	rep.Config.P = rt.P()
	rep.Config.Clients = *clients
	rep.Config.Mix = mix.String()
	rep.Config.Sizes = sizes
	rep.Config.Dists = harness.KindNames(kinds)
	rep.Config.Seed = *seed
	rep.Config.MaxPendingPerGroup = *maxPending
	rep.Config.MaxInject = *maxInject
	rep.Config.GOMAXPROCS = runtime.GOMAXPROCS(0)
	for i := range tally.PerLabel {
		if lc := &tally.PerLabel[i]; lc.Requests > 0 { // 0: never drawn
			rep.PerAlgorithm = append(rep.PerAlgorithm, labelReport{lc.Label, lc.Requests, latencyOf(&lc.Latency)})
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}

	fmt.Fprintf(os.Stderr,
		"throughput: p=%d clients=%d elapsed=%.2fs requests=%d (%.1f req/s) p50=%.1fms p90=%.1fms p99=%.1fms max=%.1fms admission[%v]\n",
		rep.Config.P, *clients, rep.ElapsedSeconds, rep.Requests, rep.RequestsPerSec,
		rep.Latency.P50*1e3, rep.Latency.P90*1e3, rep.Latency.P99*1e3, rep.Latency.Max*1e3, adm)
	for _, lr := range rep.PerAlgorithm {
		if max := time.Duration(lr.Latency.Max * float64(time.Second)); max > tally.Elapsed/2 {
			fmt.Fprintf(os.Stderr, "throughput: WARNING label=%s max=%v is more than half the run — a request was starved (ROADMAP item 4)\n",
				lr.Algorithm, max.Round(time.Millisecond))
		}
	}
	if rep.Failures > 0 {
		fmt.Fprintf(os.Stderr, "throughput: %d OUTPUTS FAILED VERIFICATION\n", rep.Failures)
		os.Exit(1)
	}
	if rep.Requests == 0 {
		fmt.Fprintln(os.Stderr, "throughput: no requests completed (duration too short?)")
		os.Exit(1)
	}
}

type latencyJSON struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean_seconds"`
	P50  float64 `json:"p50_seconds"`
	P90  float64 `json:"p90_seconds"`
	P99  float64 `json:"p99_seconds"`
	Max  float64 `json:"max_seconds"`
}

func latencyOf(s *stats.Sample) latencyJSON {
	return latencyJSON{
		N:    s.N(),
		Mean: s.Mean(),
		P50:  s.Percentile(50),
		P90:  s.Percentile(90),
		P99:  s.Percentile(99),
		Max:  s.Max(),
	}
}

// admissionOf is the report's admission object: each admission counter
// under its short name, plus the derived pending count.
func admissionOf(adm stats.AdmissionSnapshot) map[string]int64 {
	m := map[string]int64{"pending": adm.Pending()}
	for c, d := range stats.AdmissionCounters {
		m[d.Short] = adm[c]
	}
	return m
}

// labelReport is one label's row of the report: Requests counts requests,
// Latency.N calls (a batch of the abandon mix is one call of four requests).
type labelReport struct {
	Algorithm string      `json:"algorithm"`
	Requests  int64       `json:"requests"`
	Latency   latencyJSON `json:"latency"`
}

type report struct {
	Config struct {
		P                  int      `json:"p"`
		Clients            int      `json:"clients"`
		Mix                string   `json:"mix"`
		Sizes              []int    `json:"sizes"`
		Dists              []string `json:"dists"`
		Seed               uint64   `json:"seed"`
		MaxPendingPerGroup int      `json:"max_pending_per_group"`
		MaxInject          int      `json:"max_inject"`
		GOMAXPROCS         int      `json:"gomaxprocs"`
	} `json:"config"`
	ElapsedSeconds float64          `json:"elapsed_seconds"`
	Requests       int64            `json:"requests"`
	Failures       int64            `json:"failures"`
	RequestsPerSec float64          `json:"requests_per_second"`
	PeakInflight   int64            `json:"peak_inflight_requests"`
	Abandoned      int64            `json:"abandoned_requests,omitempty"`
	Latency        latencyJSON      `json:"latency"`
	Admission      map[string]int64 `json:"admission"`
	PerAlgorithm   []labelReport    `json:"per_algorithm"`
	// Metrics is the flattened metrics-registry dump (Registry.Values): one
	// entry per series, histograms summarized as _count/_sum/p50/p90/p99.
	Metrics map[string]float64 `json:"scheduler_metrics,omitempty"`
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

// must is fatal on a bad flag value or a resource that cannot be opened.
func must[T any](v T, err error) T {
	if err != nil {
		fatal(err)
	}
	return v
}
