package core

import (
	"strconv"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Metrics surface of the scheduler: every counter the workers and the
// admission path already keep, re-homed into a stats.Registry as scrapeable
// Prometheus-style families. Registration hands the registry closures over
// the live atomics — nothing on any task path changes, and every value is
// read fresh at scrape time.

// RegisterMetrics adds the scheduler's metric families to reg. Several
// registries may observe one scheduler (e.g. each Runtime on a shared
// scheduler builds its own), so this may be called more than once with
// different registries; calling it twice with the same registry panics on
// the duplicate series.
func (s *Scheduler) RegisterMetrics(reg *stats.Registry) {
	// One family per stats table row, a worker counter summed over the
	// workers at scrape time; the admission high-water mark is a gauge.
	for c, d := range stats.Counters {
		if d.Metric == "" {
			continue
		}
		reg.CounterFunc(d.Metric, d.Help, nil, func() float64 {
			var total int64
			for _, w := range s.workers {
				total += w.st[c].Load()
			}
			return float64(total)
		})
	}
	for c, d := range stats.AdmissionCounters {
		fn := func() float64 { return float64(s.admit[c].Load()) }
		if stats.AdmissionCounter(c) == stats.PeakPending {
			reg.GaugeFunc(d.Metric, d.Help, nil, fn)
		} else {
			reg.CounterFunc(d.Metric, d.Help, nil, fn)
		}
	}
	for src := wakeSource(0); src < numWakeSources; src++ {
		reg.CounterFunc("repro_sched_wakeups_total",
			"Wake-ups sent to parked workers, by what made the work visible.",
			[]stats.Label{{Name: "source", Value: wakeSourceNames[src]}},
			func() float64 { return float64(s.wakes[src].Load()) })
	}
	reg.GaugeFunc("repro_sched_workers", "Workers of the scheduler.",
		nil, func() float64 { return float64(s.topo.P) })
	reg.GaugeFunc("repro_sched_inflight_tasks",
		"In-flight tasks, summed over the busy groups (racy; exact at quiescence).",
		nil, func() float64 { return float64(s.Pending()) })
	reg.GaugeFunc("repro_sched_inject_queue_depth",
		"Admitted external tasks no worker has started yet, across all sources.",
		nil, func() float64 { return float64(s.pendingInject.Load()) })
	reg.GaugeFunc("repro_sched_inject_sources",
		"Submission sources currently holding pending injected tasks.",
		nil, func() float64 {
			s.admitMu.Lock()
			defer s.admitMu.Unlock()
			return float64(s.ringLen)
		})
	for _, w := range s.workers {
		reg.GaugeFunc("repro_sched_freelist_nodes",
			"Recycled task nodes parked on a worker's free list.",
			[]stats.Label{{Name: "worker", Value: strconv.Itoa(w.id)}},
			func() float64 { return float64(w.freeLen.Load()) })
	}

	// Scrape-time rate support: every *_total family above is a monotone
	// counter, and this uptime counter is the matching time base. A scraper
	// without PromQL computes a rate as (counter₂ − counter₁) /
	// (uptime₂ − uptime₁) from any two scrapes — the delta convention
	// the root package's TestMetricsLiveScrape enforces.
	reg.CounterFunc("repro_uptime_seconds",
		"Seconds since the scheduler was built (time base for scrape-delta rates).",
		nil, func() float64 { return s.Uptime().Seconds() })
	reg.Histogram("repro_admission_wait_seconds",
		"Inject-to-take admission latency: how long an admitted external task waited before a worker took it.",
		nil, s.admitWait)

	for st := trace.State(0); st < trace.NumStates; st++ {
		reg.CounterFunc("repro_worker_state_samples_total",
			"Worker-state observations by the sampling profiler.",
			[]stats.Label{{Name: "state", Value: trace.StateNames[st]}},
			func() float64 { return float64(s.profiler.Count(st)) })
	}
	reg.CounterFunc("repro_profiler_ticks_total",
		"Completed sampling rounds of the worker-state profiler (each reads every worker once).",
		nil, func() float64 { return float64(s.profiler.Ticks()) })
	reg.CounterFunc("repro_trace_events_total",
		"Execution-trace events recorded across all rings.",
		nil, func() float64 { return float64(s.xt.Events()) })
	reg.CounterFunc("repro_trace_dropped_events_total",
		"Execution-trace events lost to ring overflow.",
		nil, func() float64 { return float64(s.xt.DroppedTotal()) })
}

// Metrics returns the scheduler's metrics registry, built once on first
// call. The registry renders the Prometheus text exposition format
// (Render/WriteText/ServeHTTP).
func (s *Scheduler) Metrics() *stats.Registry {
	s.metricsOnce.Do(func() {
		reg := stats.NewRegistry()
		s.RegisterMetrics(reg)
		s.metricsReg = reg
	})
	return s.metricsReg
}
