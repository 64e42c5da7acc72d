package main

import (
	"fmt"
	"math"

	"repro/internal/trace"
)

// metric is one reported number. N is the number of samples behind a timing
// (0 for counts and ratios).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metrics keeps insertion order, so reports list metrics as defined.
type metrics struct {
	names []string
	by    map[string]metric
}

func (m *metrics) set(name string, v float64, unit string, n int) {
	if m.by == nil {
		m.by = make(map[string]metric)
	}
	if _, dup := m.by[name]; dup {
		panic("bench: metric " + name + " set twice")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // a ratio over an empty base
	}
	m.names = append(m.names, name)
	m.by[name] = metric{Value: v, Unit: unit, N: n}
}

func (m *metrics) merge(o metrics) {
	for _, name := range o.names {
		x := o.by[name]
		m.set(name, x.Value, x.Unit, x.N)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quietShare is the share of a window's segments that decides a timed
// end-to-end metric: the metric is the value its best tenth of the segments
// reach (the upper decile of throughput, the lower decile of a time).
// Interference from the host only ever slows a segment down, and over ten
// runs on ten seeds in a noisy session the decile spread by 0.4 to 0.8 of
// what the median over the segments did (README.md, "Repeatability").
const quietShare = 0.1

// endToEnd derives the gated end-to-end metrics of an untraced run, in the
// order of BENCHMARK.json: the three timed ones are the quiet decile over the
// window's segments; the allocation does not depend on the host's speed and
// is taken over the whole window (n is the window's sample count). They are
// defined for every workload and never 0.
func endToEnd(r *runResult) metrics {
	var m metrics
	over := func(p float64, f func(segment) float64) float64 {
		vs := make([]float64, len(r.segs))
		for i, sg := range r.segs {
			vs[i] = f(sg)
		}
		return quantile(vs, p)
	}
	m.set("req_per_s", over(1-quietShare, func(s segment) float64 { return s.ReqPerS }), "1/s", r.completed())
	m.set("latency_p50_ms", over(quietShare, func(s segment) float64 { return s.P50MS }), "ms", len(r.lat))
	m.set("cpu_ms_per_req", over(quietShare, func(s segment) float64 { return s.CPUMSPerReq }), "ms", r.completed())
	m.set("alloc_kb_per_req", float64(r.allocBytes)/1024/float64(r.completed()), "KiB", r.completed())
	m.set("setup_s", median(r.setupS), "s", len(r.setupS))
	return m
}

// diagnostics are the end-to-end numbers that are reported but not gated:
// they are constant on this load (failed_share, slo_met_share), undefined on
// some workload (a p99 needs 1000 samples) or did not hold a bound over five
// sets on the reference box (latency_p90_ms: 0.49 on bigsort, where a window
// has fewer than ten samples beyond it).
func diagnostics(r *runResult) metrics {
	var m metrics
	p90, _ := percentile(r.lat, 90)
	m.set("diag.latency_p90_ms", float64(p90)/1e6, "ms", len(r.lat))
	tp, tv := tailOf(r.lat)
	m.set("diag.latency_tail_ms", float64(tv)/1e6, "ms", len(r.lat))
	m.set("diag.latency_tail_pct", tp, "%", len(r.lat))
	m.set("diag.failed_share", ratio(float64(r.failed()), float64(r.attempted)), "share", r.attempted)
	m.set("diag.slo_met_share", ratio(float64(r.sloMet), float64(r.attempted)), "share", r.attempted)
	return m
}

// perReqCounters maps the per-request layer metrics of the traced run to the
// counter of the Runtime's metrics registry they are the window delta of.
var perReqCounters = []struct{ metric, counter string }{
	{"core.tasks_per_req", "repro_sched_tasks_total"},
	{"core.spawns_per_req", "repro_sched_spawns_total"},
	{"core.tasks_stolen_per_req", "repro_sched_tasks_stolen_total"},
	{"core.backoffs_per_req", "repro_sched_backoffs_total"},
	{"core.quiesce_scans_per_req", "repro_sched_quiesce_scans_total"},
	{"core.teams_formed_per_req", "repro_sched_teams_formed_total"},
	{"core.cas_failures_per_req", "repro_sched_cas_failures_total"},
	{"core.conflicts_lost_per_req", "repro_sched_conflicts_lost_total"},
	{"core.revocations_per_req", "repro_sched_revocations_total"},
	{"core.inject_takes_per_req", "repro_sched_inject_takes_total"},
	{"core.blocked_spawns_per_req", "repro_admission_blocked_spawns_total"},
}

// layerMetrics derives the per-layer numbers of one traced run: counter
// deltas at the window edges, worker-state shares, span self times, and the
// tracing overhead against the run's untraced reference half.
func layerMetrics(r *runResult) metrics {
	var m metrics
	c := func(name string) float64 { return r.counters[name] }
	reqs := float64(r.attempted)
	for _, pc := range perReqCounters {
		m.set(pc.metric, c(pc.counter)/reqs, "count", 0)
	}
	m.set("core.steal_success_ratio", ratio(c("repro_sched_steals_total"), c("repro_sched_steal_attempts_total")), "share", 0)
	m.set("core.team_exec_share", ratio(c("repro_sched_team_tasks_total"), c("repro_sched_tasks_total")), "share", 0)
	m.set("core.coord_rounds_per_team", ratio(c("repro_sched_coordinations_total"), c("repro_sched_teams_formed_total")), "count", 0)
	m.set("core.revoked_share", ratio(c("repro_revoked_total"), c("repro_admission_injected_total")), "share", 0)
	m.set("core.peak_pending", c("repro_admission_peak_pending"), "count", 0)
	m.set("core.admission_wait_p50_us", r.admWait.Percentile(50)*1e6, "us", int(r.admWait.Count))
	m.set("core.admission_wait_p90_us", r.admWait.Percentile(90)*1e6, "us", int(r.admWait.Count))

	var samples float64
	for st := trace.State(0); st < trace.NumStates; st++ {
		samples += c(stateCounter(st))
	}
	for st := trace.State(0); st < trace.NumStates; st++ {
		m.set("core.state_share."+trace.StateNames[st], ratio(c(stateCounter(st)), samples), "share", int(samples))
	}

	sp := &r.spans
	self := func(n spanName) (float64, int) { return medianNS(sp.selfByName[n]) / 1e6, len(sp.selfByName[n]) }
	callMS, callN := self(spRuntimeCall)
	stageMS, stageN := self(spStageInput)
	verifyMS, verifyN := self(spVerify)
	m.set("runtime.call_self_ms_p50", callMS, "ms", callN)
	m.set("bench.stage_input_ms_p50", stageMS, "ms", stageN)
	m.set("bench.verify_ms_p50", verifyMS, "ms", verifyN)
	// The spans inside the call exist where the harness builds the request
	// from layer calls (finegrain); elsewhere they are 0.
	spawnMS, spawnN := self(spGroupSpawn)
	queueMS, queueN := self(spQueueWait)
	execMS, execN := self(spExecAndWake)
	m.set("core.group_spawn_self_us_p50", 1e3*spawnMS, "us", spawnN)
	m.set("core.queue_wait_self_us_p50", 1e3*queueMS, "us", queueN)
	m.set("core.exec_and_wake_self_ms_p50", execMS, "ms", execN)
	var inCall, total float64
	for n := range sp.selfByName {
		for _, v := range sp.selfByName[n] {
			total += float64(v)
			switch spanName(n) {
			case spRuntimeCall, spGroupSpawn, spQueueWait, spExecAndWake:
				inCall += float64(v)
			}
		}
	}
	m.set("bench.overhead_share", 1-ratio(inCall, total), "share", sp.requests)
	late, _ := percentile(r.late, 90)
	m.set("bench.gen_lateness_p90_ms", float64(late)/1e6, "ms", len(r.late))

	m.set("trace.overhead_share", 1-ratio(r.reqPerS(), r.refReqPerS), "share", r.completed())
	m.set("trace.events_per_req", c("repro_trace_events_total")/reqs, "count", 0)
	m.set("trace.dropped_share", ratio(c("repro_trace_dropped_events_total"), c("repro_trace_events_total")), "share", 0)

	m.set("go.gc_cycles_per_kreq", 1000*float64(r.gcCycles)/reqs, "count", 0)
	m.set("go.gc_pause_ms_per_s", float64(r.gcPauseNS)/1e6/(float64(r.elapsedNS)/1e9), "ms/s", 0)
	return m
}

// perLayer is the full per-layer list of BENCHMARK.json for one traced run:
// its layer metrics, its diagnostics, and the probes.
func perLayer(r *runResult, probes metrics) metrics {
	m := layerMetrics(r)
	m.merge(diagnostics(r))
	m.merge(probes)
	return m
}

func stateCounter(st trace.State) string {
	return fmt.Sprintf("repro_worker_state_samples_total{state=%q}", trace.StateNames[st])
}
