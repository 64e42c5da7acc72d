package core

import (
	"strconv"
	"sync/atomic"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Metrics surface of the scheduler: every counter the workers and the
// admission path already keep, re-homed into a stats.Registry as scrapeable
// Prometheus-style families. Registration hands the registry closures over
// the live atomics — nothing on any task path changes, and every value is
// read fresh at scrape time.

// schedCounters maps each per-worker stats counter to one registry family
// (summed across workers at scrape time).
var schedCounters = []struct {
	name, help string
	get        func(w *stats.Worker) *atomic.Int64
}{
	{"repro_sched_tasks_total", "Tasks executed (team tasks count once per participant).",
		func(w *stats.Worker) *atomic.Int64 { return &w.TasksRun }},
	{"repro_sched_team_tasks_total", "Task executions that were part of a team of size > 1.",
		func(w *stats.Worker) *atomic.Int64 { return &w.TeamTasksRun }},
	{"repro_sched_teams_formed_total", "Team executions published by a coordinator (a kept team counts once per task).",
		func(w *stats.Worker) *atomic.Int64 { return &w.TeamsFormed }},
	{"repro_sched_coordinations_total", "Coordination rounds entered.",
		func(w *stats.Worker) *atomic.Int64 { return &w.TeamsCoordd }},
	{"repro_sched_spawns_total", "Tasks pushed to local queues by interior spawns.",
		func(w *stats.Worker) *atomic.Int64 { return &w.Spawns }},
	{"repro_sched_steals_total", "Successful steal operations (>= 1 task).",
		func(w *stats.Worker) *atomic.Int64 { return &w.Steals }},
	{"repro_sched_tasks_stolen_total", "Tasks transferred by steals.",
		func(w *stats.Worker) *atomic.Int64 { return &w.TasksStolen }},
	{"repro_sched_steal_attempts_total", "Steal rounds attempted.",
		func(w *stats.Worker) *atomic.Int64 { return &w.StealAttempts }},
	{"repro_sched_failed_steal_attempts_total", "Steal rounds that found no work.",
		func(w *stats.Worker) *atomic.Int64 { return &w.FailedAttempts }},
	{"repro_sched_registrations_total", "Successful team registrations at a coordinator.",
		func(w *stats.Worker) *atomic.Int64 { return &w.Registrations }},
	{"repro_sched_deregistrations_total", "Team deregistrations.",
		func(w *stats.Worker) *atomic.Int64 { return &w.Deregistrations }},
	{"repro_sched_revocations_total", "Registrations found revoked (epoch change).",
		func(w *stats.Worker) *atomic.Int64 { return &w.Revocations }},
	{"repro_sched_conflicts_lost_total", "Coordination conflicts yielded to another coordinator.",
		func(w *stats.Worker) *atomic.Int64 { return &w.ConflictsLost }},
	{"repro_sched_cas_failures_total", "Failed CAS operations on registration words.",
		func(w *stats.Worker) *atomic.Int64 { return &w.CASFailures }},
	{"repro_sched_backoffs_total", "Idle and member waits: spin/yield rounds, sleeps and parks.",
		func(w *stats.Worker) *atomic.Int64 { return &w.Backoffs }},
	{"repro_sched_polls_total", "Partner-poll invocations.",
		func(w *stats.Worker) *atomic.Int64 { return &w.Polls }},
	{"repro_sched_inject_takes_total", "Tasks taken from the inject queues by workers.",
		func(w *stats.Worker) *atomic.Int64 { return &w.InjectTakes }},
	{"repro_sched_parks_total", "Times an idle worker blocked on its wake slot.",
		func(w *stats.Worker) *atomic.Int64 { return &w.Parks }},
}

// RegisterMetrics adds the scheduler's metric families to reg. Several
// registries may observe one scheduler (e.g. each Runtime on a shared
// scheduler builds its own), so this may be called more than once with
// different registries; calling it twice with the same registry panics on
// the duplicate series.
func (s *Scheduler) RegisterMetrics(reg *stats.Registry) {
	for _, c := range schedCounters {
		get := c.get
		reg.CounterFunc(c.name, c.help, nil, func() float64 {
			var total int64
			for _, w := range s.workers {
				total += get(&w.st).Load()
			}
			return float64(total)
		})
	}
	for src := wakeSource(0); src < numWakeSources; src++ {
		src := src
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
		w := w
		reg.GaugeFunc("repro_sched_freelist_nodes",
			"Recycled task nodes parked on a worker's free list.",
			[]stats.Label{{Name: "worker", Value: strconv.Itoa(w.id)}},
			func() float64 { return float64(w.freeLen.Load()) })
	}

	reg.CounterFunc("repro_admission_injected_total",
		"External tasks admitted into the inject queues.",
		nil, func() float64 { return float64(s.admit.Injected.Load()) })
	reg.CounterFunc("repro_admission_taken_total",
		"Admitted tasks moved onto worker queues.",
		nil, func() float64 { return float64(s.admit.Taken.Load()) })
	reg.CounterFunc("repro_admission_rejected_total",
		"Tasks refused by a non-blocking spawn (ErrSaturated or canceled group).",
		nil, func() float64 { return float64(s.admit.Rejected.Load()) })
	reg.CounterFunc("repro_admission_blocked_spawns_total",
		"Blocking spawn calls that had to park for inject room.",
		nil, func() float64 { return float64(s.admit.BlockedSpawns.Load()) })
	reg.CounterFunc("repro_canceled_total",
		"Group cancellations (Cancel, deadline fire, bound context).",
		nil, func() float64 { return float64(s.admit.Canceled.Load()) })
	reg.CounterFunc("repro_revoked_total",
		"Admitted tasks revoked at take time because their group was canceled.",
		nil, func() float64 { return float64(s.admit.Revoked.Load()) })
	reg.CounterFunc("repro_spawn_timeouts_total",
		"Blocking or retrying spawns that returned ErrDeadlineExceeded.",
		nil, func() float64 { return float64(s.admit.SpawnTimeouts.Load()) })
	reg.GaugeFunc("repro_admission_peak_pending",
		"High-water mark of pending injected tasks.",
		nil, func() float64 { return float64(s.admit.PeakPending.Load()) })

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
		st := st
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
