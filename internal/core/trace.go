package core

import (
	"fmt"
	"io"

	"repro/internal/trace"
)

// Execution tracing and worker-state profiling (see internal/trace). The
// scheduler owns one tracer with P+1 rings — one per worker plus one for
// the admission path (owned by the admitMu holder, so its writes are
// serialized like a worker's) — and one sampling profiler over the workers'
// published states. Tracing replaces the old global protocol tracer: the
// registration-protocol events now land on the recording worker's own ring
// alongside the task-lifecycle events, written through the same alloc-free
// owner-only path, so enabling a trace perturbs the scheduler far less than
// the old shared ring (which allocated one event per emit).

// traceNames labels the tracer's rings for dumps and the Chrome export.
func traceNames(p int) []string {
	names := make([]string, p+1)
	for i := 0; i < p; i++ {
		names[i] = fmt.Sprintf("worker %d", i)
	}
	names[p] = "inject"
	return names
}

// ev records a protocol/team event on the worker's own ring. Hot task-path
// sites (pushTask, runSolo, taskDone) inline the same guard directly instead
// of calling through here; either way a disabled tracer costs one predicted
// branch on an atomic bool load.
//
//repro:noalloc called from the worker main loop; a disabled tracer must stay free
func (w *worker) ev(k trace.Kind, other, x int, arg uint64) {
	if xt := w.sched.xt; xt.Enabled() {
		xt.Record(w.id, k, other, uint32(x), arg)
	}
}

// setState publishes the worker's coarse activity state for the sampling
// profiler and DumpState, returning the previous state so nested task
// executions (TaskGroup.Wait helping inside a running task) can restore it.
// Only the owner writes the word, so its load is a plain read of its own
// line and the store is skipped when the state does not change.
//
//repro:noalloc state transitions happen several times per loop iteration
func (w *worker) setState(st trace.State) trace.State {
	prev := trace.State(w.state.Load())
	if prev != st {
		w.state.Store(uint32(st))
	}
	return prev
}

// StartTrace enables execution tracing. The per-worker event rings are
// allocated on the first call and kept afterwards, so toggling tracing on a
// live scheduler allocates nothing after the first window; restarting
// appends to the same timeline. Safe to call at any time, including
// concurrently with running tasks.
func (s *Scheduler) StartTrace() { s.xt.Start() }

// StopTrace disables execution tracing. Recorded events remain available to
// TraceSnapshot/TraceDump/WriteChromeTrace until tracing is restarted long
// enough to overwrite them.
func (s *Scheduler) StopTrace() { s.xt.Stop() }

// TraceActive reports whether execution tracing is currently enabled.
func (s *Scheduler) TraceActive() bool { return s.xt.Enabled() }

// TraceSnapshot reads the event rings without stopping the workers (per-
// slot stamp validation; see internal/trace) and returns the surviving
// events in timestamp order.
func (s *Scheduler) TraceSnapshot() trace.Snapshot { return s.xt.Snapshot() }

// TraceDump renders the current trace as a compact text dump, one line per
// event.
func (s *Scheduler) TraceDump() string { return s.xt.Snapshot().Text() }

// WriteChromeTrace writes the current trace as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing: one track per
// worker plus an admission track, task executions as slices, flow arrows
// linking spawn→start across steals, groups as async spans.
func (s *Scheduler) WriteChromeTrace(w io.Writer) error {
	return s.xt.Snapshot().WriteChrome(w)
}

// TraceDropped returns the number of trace events lost to ring overflow so
// far, summed across rings.
func (s *Scheduler) TraceDropped() uint64 { return s.xt.DroppedTotal() }

// StartProfiler launches the worker-state sampling profiler at hz samples
// per second (0 selects the 100 Hz default). The observations accumulate in
// the repro_worker_state_samples_total{state=...} registry counters and are
// also readable via ProfilerStateCounts. Starting a running profiler is a
// no-op; counters accumulate across stop/start cycles.
func (s *Scheduler) StartProfiler(hz float64) { s.profiler.Start(hz) }

// StopProfiler halts the sampling profiler (idempotent; Shutdown also stops
// it).
func (s *Scheduler) StopProfiler() { s.profiler.Stop() }

// ProfilerStateCounts returns the per-state observation counts of the
// sampling profiler, indexed like trace.StateNames.
func (s *Scheduler) ProfilerStateCounts() [trace.NumStates]int64 {
	var out [trace.NumStates]int64
	for st := trace.State(0); st < trace.NumStates; st++ {
		out[st] = s.profiler.Count(st)
	}
	return out
}
