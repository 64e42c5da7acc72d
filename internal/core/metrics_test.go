package core

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

// TestSchedulerMetricsValues runs real work through a live scheduler and
// checks the registry reports it: task counters move, the worker gauge is
// exact, the in-flight gauge is back at zero after the drain, and the
// admission counters see the external submissions.
func TestSchedulerMetricsValues(t *testing.T) {
	s := newTest(t, Options{P: 2})
	for i := 0; i < 8; i++ {
		s.Run(Solo(func(ctx *Ctx) {
			ctx.Spawn(Solo(func(*Ctx) {}))
		}))
	}
	vals := s.Metrics().Values()
	if got := vals["repro_sched_workers"]; got != 2 {
		t.Fatalf("repro_sched_workers = %v, want 2", got)
	}
	if got := vals["repro_sched_tasks_total"]; got < 16 {
		t.Fatalf("repro_sched_tasks_total = %v, want >= 16", got)
	}
	if got := vals["repro_admission_injected_total"]; got != 8 {
		t.Fatalf("repro_admission_injected_total = %v, want 8", got)
	}
	if got := vals["repro_sched_inflight_tasks"]; got != 0 {
		t.Fatalf("repro_sched_inflight_tasks = %v after drain, want 0", got)
	}
	if m2 := s.Metrics(); m2 != s.Metrics() {
		t.Fatal("Metrics() not cached")
	}
}

// TestMetricsTwoRegistries pins that one scheduler can feed several
// registries (each Runtime on a shared scheduler builds its own): the
// second RegisterMetrics must not collide with the first.
func TestMetricsTwoRegistries(t *testing.T) {
	s := newTest(t, Options{P: 2})
	a, b := stats.NewRegistry(), stats.NewRegistry()
	s.RegisterMetrics(a)
	s.RegisterMetrics(b)
	if ra, rb := a.Render(), b.Render(); ra == "" || rb == "" {
		t.Fatal("empty render")
	}
}

// TestFreelistGauge checks the per-worker free-list occupancy series: after
// a worker completes a task its node parks on the free list, and once the
// worker runs out of work (idleWait publishes the freeLen mirror, off the
// per-task path) the gauge reports it under the worker's label.
func TestFreelistGauge(t *testing.T) {
	s := stopped(2)
	w := s.workers[0]
	w.push(Solo(func(*Ctx) {}))
	w.runSolo(w.queues[0].PopBottom())
	w.idleWait()
	vals := s.Metrics().Values()
	if got := vals[`repro_sched_freelist_nodes{worker="0"}`]; got != float64(w.free.Len()) || got < 1 {
		t.Fatalf(`freelist_nodes{worker="0"} = %v, want %d (>= 1)`, got, w.free.Len())
	}
	if got := vals[`repro_sched_freelist_nodes{worker="1"}`]; got != 0 {
		t.Fatalf(`freelist_nodes{worker="1"} = %v, want 0`, got)
	}
}

// TestMetricsExposition sanity-checks the rendered text: every scheduler
// family present, counters typed counter, and no rendering of a live
// scheduler panics mid-scrape.
func TestMetricsExposition(t *testing.T) {
	s := newTest(t, Options{P: 2})
	s.Run(Solo(func(*Ctx) {}))
	out := s.Metrics().Render()
	for _, want := range []string{
		"# TYPE repro_sched_tasks_total counter",
		"# TYPE repro_sched_inflight_tasks gauge",
		"# HELP repro_admission_injected_total ",
		`repro_sched_freelist_nodes{worker="1"}`,
		"# TYPE repro_sched_parks_total counter",
		`repro_sched_wakeups_total{source="inject"}`,
		`repro_sched_wakeups_total{source="spawn"}`,
		`repro_sched_wakeups_total{source="team"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition lacks %q:\n%s", want, out)
		}
	}
}
