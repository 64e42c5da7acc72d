// Command throughput measures multi-client sorting throughput on ONE
// shared scheduler: C client goroutines issue sort requests drawn from a
// size × distribution × algorithm mix against a single repro.Runtime, and
// the per-group quiescence of the scheduler lets all requests proceed
// concurrently. It reports requests/second, latency percentiles
// (internal/stats.Sample) and the scheduler's admission-control counters
// (queue depth, rejects, blocked spawns) as JSON on stdout — the
// BENCH_throughput.json trajectory emitted by scripts/bench.sh — plus a
// human summary on stderr.
//
// Admission control: -max-pending and -max-inject configure the scheduler's
// inject bounds (repro.Options.MaxPendingPerGroup / MaxInject), so the
// harness can demonstrate backpressure: with clients ≫ p and a bound
// configured, peak pending injected tasks never exceed the bound.
//
// Sweep mode: -sweep runs the same request mix at several client counts
// (each on a fresh scheduler, so counters are per-point), records one
// measurement per count, and reports the saturation knee — the first
// client count whose throughput gain over the previous point falls below
// 10%.
//
// Batch mode: -batch n submits n requests per call through the batched
// Runtime.SortMany (one admission-lock acquisition per batch) instead of
// one Sort* call per request; latency samples are then per batch.
//
// Analytics mode: -mix analytics replaces the sort requests with the
// Runtime's analytics operators (filter, groupby, aggregate, topk, join,
// plan — see internal/query) drawn uniformly over the size × distribution
// grid. Requests read the shared pre-generated inputs in place (the
// operators never mutate their sources), every result is verified against
// an expected value precomputed at generation time, and the per-operator
// latency breakdown replaces the per-algorithm one in the report.
//
// Observability: -trace-out f records an execution trace of the last
// measurement point and writes it as Chrome trace-event JSON to f (load in
// Perfetto or chrome://tracing; scripts/tracecheck validates it).
// -profile-hz r runs the worker-state sampling profiler during every point,
// surfacing the running/stealing/parked breakdown through the
// repro_worker_state_samples_total metric families. With -metrics-addr set,
// /debug/trace captures a bounded trace window of the current point on
// demand.
//
// Usage:
//
//	throughput -clients 8 -duration 3s
//	throughput -clients 16 -sizes 65536,1048576 -dists random,staggered -algos mmpar,ssort
//	throughput -clients 64 -max-inject 16 -max-pending 2
//	throughput -sweep 1,2,4,8,16,32 -duration 1s
//	throughput -batch 8 -algos mmpar,ssort
//	throughput -clients 4 -duration 1s -trace-out trace.json -profile-hz 199
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/dist"
	"repro/internal/dist/distpar"
	"repro/internal/harness"
	"repro/internal/qsort"
	"repro/internal/stats"
)

// request is one cell of the workload mix.
type request struct {
	size int
	kind dist.Kind
	alg  harness.Algorithm
	in   []int32 // pre-generated input, copied per request
}

// clientResult is one client's recorded latencies, per request label
// (algorithm column in the sort mix, operator name in the analytics mix)
// and overall.
type clientResult struct {
	overall   stats.Sample
	perAlgo   map[string]*stats.Sample
	requests  int64
	failures  int64
	abandoned int64 // abandon-mix batch requests given up on (deadline/cancel)
}

// runConfig is everything one measurement point needs besides its client
// count.
type runConfig struct {
	p          int
	seed       uint64
	batch      int
	maxPending int
	maxInject  int
	mix        harness.Mix
	labels     []string // report order of the per-label latency breakdown
	reqs       []request
	cells      []aCell       // analytics-mix workload cells (mix == MixAnalytics)
	abandonAft time.Duration // batch-client context deadline (mix == MixAbandon)
	maxSize    int
	profileHz  float64
	mmOpt      repro.MMOptions
	ssOpt      repro.SSOptions
	msOpt      repro.MSOptions
}

func main() {
	var (
		p          = flag.Int("p", 0, "workers of the shared scheduler (default NumCPU)")
		clients    = flag.Int("clients", 8, "concurrent client goroutines")
		duration   = flag.Duration("duration", 3*time.Second, "measurement duration (per sweep point)")
		sizesStr   = flag.String("sizes", "65536,262144,1048576", "request sizes (elements), comma-separated")
		distsStr   = flag.String("dists", "random,gauss,staggered", "input distributions, comma-separated")
		algosStr   = flag.String("algos", "mmpar,fork,ssort,msort", "algorithms, comma-separated (seqstl|fork|mmpar|ssort|msort)")
		seed       = flag.Uint64("seed", 42, "input generator seed")
		cutoff     = flag.Int("cutoff", qsort.DefaultCutoff, "sequential cutoff")
		block      = flag.Int("block", qsort.DefaultBlockSize, "partition block size (mmpar; also sets the team quota)")
		minBlk     = flag.Int("minblocks", qsort.DefaultMinBlocksPerThread, "min blocks per partitioning thread")
		maxPending = flag.Int("max-pending", 0, "admission bound per group (Options.MaxPendingPerGroup; 0 = unbounded)")
		maxInject  = flag.Int("max-inject", 0, "admission bound across all groups (Options.MaxInject; 0 = unbounded)")
		batch      = flag.Int("batch", 1, "requests per submission (>1 uses the batched Runtime.SortMany)")
		sweepStr   = flag.String("sweep", "", "comma-separated client counts; runs one measurement per count and reports the saturation knee")
		mAddr      = flag.String("metrics-addr", "", "serve Prometheus-style /metrics on this address during the run (e.g. 127.0.0.1:9090; empty = off)")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event JSON of the last measurement point to this file (empty = off)")
		profileHz  = flag.Float64("profile-hz", 0, "sample worker states at this rate during each point (0 = off)")
		mixStr     = flag.String("mix", "sort", "request mix: sort (Sort* requests) | analytics (filter/groupby/aggregate/topk/join/plan requests) | abandon (interactive sorts + deadline-abandoned batches)")
		abandonAft = flag.Duration("abandon-after", 4*time.Millisecond, "batch-client context deadline in the abandon mix")
	)
	flag.Parse()

	sizes, err := harness.ParseSizes(*sizesStr)
	if err != nil {
		fatal(err)
	}
	kinds, err := harness.ParseKinds(*distsStr)
	if err != nil {
		fatal(err)
	}
	mix, err := harness.ParseMix(*mixStr)
	if err != nil {
		fatal(err)
	}
	algos, err := harness.ParseSchedulerAlgorithms(*algosStr)
	if err != nil {
		fatal(err)
	}
	if *batch < 1 {
		fatal(fmt.Errorf("-batch must be ≥ 1"))
	}
	if mix == harness.MixAnalytics && *batch > 1 {
		fatal(fmt.Errorf("-batch > 1 applies to the sort mix only (analytics requests are unbatched)"))
	}
	if *batch > 1 {
		for _, a := range algos {
			if a == harness.SeqSTL {
				fatal(fmt.Errorf("-batch > 1 cannot include seqstl (SortMany runs on the scheduler)"))
			}
		}
	}
	points := []int{*clients}
	if *sweepStr != "" {
		if points, err = harness.ParseSizes(*sweepStr); err != nil { // positive ints, same syntax
			fatal(fmt.Errorf("bad -sweep: %w", err))
		}
	}

	cfg := runConfig{
		p:          *p,
		seed:       *seed,
		batch:      *batch,
		maxPending: *maxPending,
		maxInject:  *maxInject,
		mix:        mix,
		abandonAft: *abandonAft,
		profileHz:  *profileHz,
		mmOpt:      repro.MMOptions{Cutoff: *cutoff, BlockSize: *block, MinBlocksPerThread: *minBlk},
		ssOpt:      repro.SSOptions{Cutoff: *cutoff, MinPerThread: *block * *minBlk},
		msOpt:      repro.MSOptions{Cutoff: *cutoff, MinPerThread: *block * *minBlk},
	}

	// Pre-generate every (distribution, size) input once, team-parallel on a
	// short-lived scheduler; sort requests copy from this pool (and analytics
	// requests read it in place), so generation cost never pollutes the
	// latencies. The analytics cells also precompute every operator's
	// expected result here, making in-loop verification a cheap comparison.
	// Each measurement point then runs on a fresh scheduler of its own, so
	// the admission counters are per-point.
	gen := repro.NewScheduler(repro.Options{P: *p, Seed: *seed})
	for _, k := range kinds {
		for _, n := range sizes {
			in := distpar.Generate(gen, k, n, *seed+uint64(n))
			if mix == harness.MixAnalytics {
				cfg.cells = append(cfg.cells, newACell(k, n, in))
			} else {
				for _, a := range algos {
					cfg.reqs = append(cfg.reqs, request{size: n, kind: k, alg: a, in: in})
				}
			}
			if n > cfg.maxSize {
				cfg.maxSize = n
			}
		}
	}
	gen.Shutdown()
	switch mix {
	case harness.MixAnalytics:
		cfg.labels = aOps
	case harness.MixAbandon:
		cfg.labels = []string{"interactive", "batch"}
	default:
		cfg.labels = harness.AlgoNames(algos)
	}

	// The metrics endpoint outlives the per-point runtimes: each point swaps
	// its fresh Runtime's registry into the long-lived server, so a scraper
	// watches the whole run (and sweep) through one address.
	var msrv *repro.MetricsServer
	if *mAddr != "" {
		if msrv, err = repro.ServeMetrics(*mAddr, nil); err != nil {
			fatal(err)
		}
		defer msrv.Close()
		fmt.Fprintf(os.Stderr, "throughput: metrics listening on %s\n", msrv.Addr())
	}

	var pts []pointJSON
	for i, c := range points {
		tOut := ""
		if *traceOut != "" && i == len(points)-1 {
			tOut = *traceOut // trace the last (usually most loaded) point
		}
		pts = append(pts, runPoint(cfg, i, c, *duration, msrv, tOut))
	}
	last := pts[len(pts)-1]

	rep := report{
		Config: configJSON{
			P: last.P,
			// In sweep mode the top-level metrics are the last point's, so
			// the config reports that point's client count (per-point counts
			// are in the sweep array).
			Clients:            last.Clients,
			Mix:                mix.String(),
			Sizes:              sizes,
			Dists:              harness.KindNames(kinds),
			Algos:              cfg.labels,
			Seed:               *seed,
			Batch:              *batch,
			MaxPendingPerGroup: *maxPending,
			MaxInject:          *maxInject,
			GOMAXPROCS:         runtime.GOMAXPROCS(0),
		},
		ElapsedSeconds: last.ElapsedSeconds,
		Requests:       last.Requests,
		Failures:       last.Failures,
		RequestsPerSec: last.RequestsPerSec,
		PeakInflight:   last.PeakInflight,
		Abandoned:      last.Abandoned,
		Latency:        last.Latency,
		Admission:      last.Admission,
		PerAlgorithm:   last.PerAlgorithm,
		Metrics:        last.Metrics,
	}
	if len(pts) > 1 {
		rep.Sweep = pts
		rep.KneeClients = knee(pts)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}

	var failures, requests int64
	for _, pt := range pts {
		fmt.Fprintf(os.Stderr,
			"throughput: p=%d clients=%d elapsed=%.2fs requests=%d (%.1f req/s) p50=%.1fms p90=%.1fms p99=%.1fms max=%.1fms admission[%s]\n",
			pt.P, pt.Clients, pt.ElapsedSeconds, pt.Requests, pt.RequestsPerSec,
			pt.Latency.P50*1e3, pt.Latency.P90*1e3, pt.Latency.P99*1e3, pt.Latency.Max*1e3,
			admissionLine(pt.Admission))
		failures += pt.Failures
		requests += pt.Requests
	}
	if rep.KneeClients > 0 {
		fmt.Fprintf(os.Stderr, "throughput: saturation knee at %d clients\n", rep.KneeClients)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "throughput: %d OUTPUTS FAILED VERIFICATION\n", failures)
		os.Exit(1)
	}
	if requests == 0 {
		fmt.Fprintln(os.Stderr, "throughput: no requests completed (duration too short?)")
		os.Exit(1)
	}
}

// runPoint runs the request mix with the given client count on a fresh
// runtime and aggregates one measurement point.
func runPoint(cfg runConfig, point, clients int, duration time.Duration,
	msrv *repro.MetricsServer, traceOut string) pointJSON {
	rt := repro.NewRuntime[int32](repro.Options{
		P:                  cfg.p,
		Seed:               cfg.seed,
		MaxPendingPerGroup: cfg.maxPending,
		MaxInject:          cfg.maxInject,
	})
	defer rt.Close()
	if msrv != nil {
		msrv.SetRegistry(rt.Metrics())
		msrv.SetTraceSource(rt.Scheduler())
	}
	if cfg.profileHz > 0 {
		rt.StartProfiler(cfg.profileHz)
		defer rt.StopProfiler()
	}
	if traceOut != "" {
		rt.StartTrace()
	}
	batchOpt := repro.BatchOptions{MM: cfg.mmOpt, SS: cfg.ssOpt, MS: cfg.msOpt}

	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	results := make([]clientResult, clients)
	var inflightPeak, inflightNow atomic.Int64
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			res.perAlgo = map[string]*stats.Sample{}
			rng := dist.NewRNG(cfg.seed).Split() // per-client request stream
			// Disjoint skip regions per (sweep point, client): clients get
			// 2^48-wide lanes, so up to 2^16 clients per point never collide.
			rng.Skip(uint64(point)<<48 | uint64(c)<<32)
			if cfg.mix == harness.MixAnalytics {
				analyticsClient(cfg, rt, rng, deadline, res, &inflightNow, &inflightPeak)
				return
			}
			if cfg.mix == harness.MixAbandon {
				abandonClient(cfg, rt, rng, c, deadline, res, &inflightNow, &inflightPeak)
				return
			}
			// Per-client scratch, reused every iteration: allocations inside
			// the timed loop would perturb the tail latencies being measured.
			bufs := make([][]int32, cfg.batch)
			for i := range bufs {
				bufs[i] = make([]int32, cfg.maxSize)
			}
			picked := make([]request, cfg.batch)
			batch := make([]repro.SortRequest[int32], cfg.batch)
			for time.Now().Before(deadline) {
				for i := range batch {
					req := cfg.reqs[rng.Intn(len(cfg.reqs))]
					d := bufs[i][:req.size]
					copy(d, req.in)
					picked[i] = req
					batch[i] = repro.SortRequest[int32]{Data: d, Algo: batchAlgo(req.alg)}
				}
				bumpInflight(&inflightNow, &inflightPeak, int64(cfg.batch))
				t0 := time.Now()
				if cfg.batch == 1 {
					sortWith(rt, picked[0].alg, batch[0].Data, cfg.mmOpt, cfg.ssOpt, cfg.msOpt)
				} else {
					rt.SortMany(batch, batchOpt)
				}
				el := time.Since(t0)
				inflightNow.Add(-int64(cfg.batch))
				res.overall.AddDuration(el) // per submission: a whole batch is one sample
				for _, req := range picked {
					s := res.perAlgo[req.alg.String()]
					if s == nil {
						s = &stats.Sample{}
						res.perAlgo[req.alg.String()] = s
					}
					s.AddDuration(el)
					res.requests++
				}
				for i, req := range picked {
					if !qsort.IsSorted(bufs[i][:req.size]) {
						res.failures++
					}
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if traceOut != "" {
		rt.StopTrace()
		if err := writeTraceFile(rt, traceOut); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "throughput: wrote Chrome trace to %s (%d events dropped to ring overflow)\n",
			traceOut, rt.Scheduler().TraceDropped())
	}

	// Fold the per-client samples.
	var overall stats.Sample
	perAlgo := map[string]*stats.Sample{}
	var requests, failures, abandoned int64
	for i := range results {
		res := &results[i]
		overall.Merge(&res.overall)
		for a, s := range res.perAlgo {
			t := perAlgo[a]
			if t == nil {
				t = &stats.Sample{}
				perAlgo[a] = t
			}
			t.Merge(s)
		}
		requests += res.requests
		failures += res.failures
		abandoned += res.abandoned
	}

	adm := rt.Scheduler().Admission()
	pt := pointJSON{
		P:              rt.P(),
		Clients:        clients,
		ElapsedSeconds: elapsed.Seconds(),
		Requests:       requests,
		Failures:       failures,
		RequestsPerSec: float64(requests) / elapsed.Seconds(),
		PeakInflight:   inflightPeak.Load(),
		Abandoned:      abandoned,
		Latency:        latencyOf(&overall),
		Admission: admissionJSON{
			Injected:      adm.Injected,
			Taken:         adm.Taken,
			Revoked:       adm.Revoked,
			Pending:       adm.Pending,
			Rejected:      adm.Rejected,
			BlockedSpawns: adm.BlockedSpawns,
			Canceled:      adm.Canceled,
			SpawnTimeouts: adm.SpawnTimeouts,
			PeakPending:   adm.PeakPending,
		},
	}
	for _, lbl := range cfg.labels {
		if s := perAlgo[lbl]; s != nil {
			pt.PerAlgorithm = append(pt.PerAlgorithm, algoReport{
				Algorithm: lbl,
				Requests:  int64(s.N()),
				Latency:   latencyOf(s),
			})
		}
	}
	// Flattened registry dump (captured before rt.Close tears the runtime
	// down): scheduler counters, admission, per-group gauges, and the
	// per-algorithm latency histogram summaries.
	pt.Metrics = rt.Metrics().Values()
	return pt
}

// writeTraceFile dumps the runtime's recorded execution trace to path.
func writeTraceFile(rt *repro.Runtime[int32], path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rt.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// knee returns the clients value of the first sweep point whose throughput
// gain over the previous point falls below 10% (including regressions) —
// the saturation knee of the clients × p sweep — or 0 if throughput keeps
// scaling through the last point.
func knee(pts []pointJSON) int {
	for i := 1; i < len(pts); i++ {
		if pts[i].RequestsPerSec < pts[i-1].RequestsPerSec*1.10 {
			return pts[i].Clients
		}
	}
	return 0
}

// sortWith dispatches one unbatched request on the shared runtime.
func sortWith(rt *repro.Runtime[int32], alg harness.Algorithm, d []int32,
	mm repro.MMOptions, ss repro.SSOptions, ms repro.MSOptions) {
	switch alg {
	case harness.SeqSTL:
		repro.SortSequential(d)
	case harness.Fork:
		rt.SortForkJoin(d)
	case harness.MMPar:
		rt.SortMixedMode(d, mm)
	case harness.SSort:
		rt.SortSamplesort(d, ss)
	case harness.MSort:
		rt.SortMergeMixedMode(d, ms)
	}
}

// batchAlgo maps a harness column to the SortMany request algorithm.
func batchAlgo(a harness.Algorithm) repro.SortAlgo {
	switch a {
	case harness.Fork:
		return repro.AlgoForkJoin
	case harness.SSort:
		return repro.AlgoSamplesort
	case harness.MSort:
		return repro.AlgoMergeMixedMode
	default:
		return repro.AlgoMixedMode
	}
}

type configJSON struct {
	P                  int      `json:"p"`
	Clients            int      `json:"clients"`
	Mix                string   `json:"mix"`
	Sizes              []int    `json:"sizes"`
	Dists              []string `json:"dists"`
	Algos              []string `json:"algos"`
	Seed               uint64   `json:"seed"`
	Batch              int      `json:"batch"`
	MaxPendingPerGroup int      `json:"max_pending_per_group"`
	MaxInject          int      `json:"max_inject"`
	GOMAXPROCS         int      `json:"gomaxprocs"`
}

type latencyJSON struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean_seconds"`
	P50  float64 `json:"p50_seconds"`
	P90  float64 `json:"p90_seconds"`
	P99  float64 `json:"p99_seconds"`
	Max  float64 `json:"max_seconds"`
}

type admissionJSON struct {
	Injected      int64 `json:"injected"`
	Taken         int64 `json:"taken"`
	Revoked       int64 `json:"revoked"`
	Pending       int64 `json:"pending"`
	Rejected      int64 `json:"rejected"`
	BlockedSpawns int64 `json:"blocked_spawns"`
	Canceled      int64 `json:"canceled"`
	SpawnTimeouts int64 `json:"spawn_timeouts"`
	PeakPending   int64 `json:"peak_pending"`
}

type algoReport struct {
	Algorithm string      `json:"algorithm"`
	Requests  int64       `json:"requests"`
	Latency   latencyJSON `json:"latency"`
}

// pointJSON is one measurement: the whole run in single mode, one client
// count in sweep mode.
type pointJSON struct {
	P              int           `json:"p"`
	Clients        int           `json:"clients"`
	ElapsedSeconds float64       `json:"elapsed_seconds"`
	Requests       int64         `json:"requests"`
	Failures       int64         `json:"failures"`
	RequestsPerSec float64       `json:"requests_per_second"`
	PeakInflight   int64         `json:"peak_inflight_requests"`
	Abandoned      int64         `json:"abandoned_requests,omitempty"`
	Latency        latencyJSON   `json:"latency"`
	Admission      admissionJSON `json:"admission"`
	PerAlgorithm   []algoReport  `json:"per_algorithm,omitempty"`
	// Metrics is the point's flattened metrics-registry dump
	// (Registry.Values): one entry per series, histograms summarized as
	// _count/_sum/p50/p90/p99.
	Metrics map[string]float64 `json:"scheduler_metrics,omitempty"`
}

type report struct {
	Config         configJSON         `json:"config"`
	ElapsedSeconds float64            `json:"elapsed_seconds"`
	Requests       int64              `json:"requests"`
	Failures       int64              `json:"failures"`
	RequestsPerSec float64            `json:"requests_per_second"`
	PeakInflight   int64              `json:"peak_inflight_requests"`
	Abandoned      int64              `json:"abandoned_requests,omitempty"`
	Latency        latencyJSON        `json:"latency"`
	Admission      admissionJSON      `json:"admission"`
	PerAlgorithm   []algoReport       `json:"per_algorithm"`
	Metrics        map[string]float64 `json:"scheduler_metrics,omitempty"`
	Sweep          []pointJSON        `json:"sweep,omitempty"`
	KneeClients    int                `json:"saturation_knee_clients,omitempty"`
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

func admissionLine(a admissionJSON) string {
	return fmt.Sprintf("injected=%d revoked=%d rejected=%d blocked=%d canceled=%d peak_pending=%d",
		a.Injected, a.Revoked, a.Rejected, a.BlockedSpawns, a.Canceled, a.PeakPending)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
