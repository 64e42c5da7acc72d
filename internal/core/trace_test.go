package core

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestTraceRecordZeroAlloc is the enabled-path counterpart of
// TestSpawnZeroAlloc: with tracing on, every spawn/start/done records an
// event, and the per-task path must still perform zero heap allocations —
// the ring write is a handful of atomic stores into preallocated slots.
func TestTraceRecordZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := New(Options{P: 2})
	defer s.Shutdown()
	s.StartTrace()
	if !s.TraceActive() {
		t.Fatal("StartTrace did not enable the tracer")
	}
	const k = 64
	ct := &benchCountdown{}
	start := make(chan struct{})
	defer close(start)
	round := make(chan struct{})
	s.Spawn(Solo(func(ctx *Ctx) {
		for range start {
			ct.remaining.Store(k)
			for i := 0; i < k; i++ {
				ctx.Spawn(ct)
			}
			drainOwn(ctx, ct)
			round <- struct{}{}
		}
	}))
	doRound := func() {
		start <- struct{}{}
		<-round
	}
	for i := 0; i < 16; i++ {
		doRound()
	}
	if avg := testing.AllocsPerRun(50, doRound); avg != 0 {
		t.Fatalf("traced spawn path allocates: %v allocs per %d-task round, want 0", avg, k)
	}
	if s.xt.Events() == 0 {
		t.Fatal("no events recorded with tracing on")
	}
}

// traceTreeTask spawns a binary tree of itself — steal fodder for the
// stress test below.
type traceTreeTask struct {
	depth int
	done  *atomic.Int64
}

func (tt *traceTreeTask) Threads() int { return 1 }
func (tt *traceTreeTask) Run(c *Ctx) {
	if tt.depth > 0 {
		c.Spawn(&traceTreeTask{depth: tt.depth - 1, done: tt.done})
		c.Spawn(&traceTreeTask{depth: tt.depth - 1, done: tt.done})
	}
	tt.done.Add(1)
}

// TestTraceStressWellFormed runs several clients' task trees with tracing
// on while snapshots race the writers — enough events to overflow the
// default rings several times, so the writers overwrite slots the snapshots
// are reading — then checks every surviving event is well-formed and that
// each task's lifecycle is ordered (start at or before done for the same
// task trace id). Finally the capture must export as valid Chrome trace
// JSON.
func TestTraceStressWellFormed(t *testing.T) {
	s := newTest(t, Options{P: 4})
	s.StartTrace()
	const (
		clients = 4
		roots   = 8
		depth   = 9
	)
	stopSnap := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stopSnap:
				return
			default:
				s.TraceSnapshot()
			}
		}
	}()
	var done atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := s.NewGroup()
			for r := 0; r < roots; r++ {
				g.Spawn(&traceTreeTask{depth: depth, done: &done})
			}
			g.Wait()
		}()
	}
	wg.Wait()
	close(stopSnap)
	snapWG.Wait()
	perTree := int64(1<<(depth+1) - 1)
	if want := int64(clients*roots) * perTree; done.Load() != want {
		t.Fatalf("ran %d tasks, want %d", done.Load(), want)
	}
	if s.TraceDropped() == 0 {
		t.Fatal("no ring overflowed: the snapshots never raced an overwrite")
	}

	snap := s.TraceSnapshot()
	if len(snap.Events) == 0 {
		t.Fatal("empty snapshot after a traced run")
	}
	starts := map[uint64]int64{}
	for _, e := range snap.Events {
		if e.Kind >= trace.NumKinds {
			t.Fatalf("malformed event kind: %+v", e)
		}
		if e.Ring < 0 || e.Ring > 4 { // P worker rings + admission ring
			t.Fatalf("event on unknown ring: %+v", e)
		}
		if e.Kind == trace.EvStart && e.Arg != 0 {
			starts[e.Arg] = e.TS
		}
	}
	for _, e := range snap.Events {
		if e.Kind == trace.EvDone && e.Arg != 0 {
			if ts, ok := starts[e.Arg]; ok && e.TS < ts {
				t.Fatalf("task %x done at %d before start at %d", e.Arg, e.TS, ts)
			}
		}
	}

	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if n, err := trace.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	} else if n == 0 {
		t.Fatal("exported trace empty")
	}
}

// TestAdmissionWaitHistogram drives one external task through the admission
// queue on an unstarted scheduler (the test plays the worker), pinning when
// the scheduler-owned inject-to-take latency is observed: at the take, not
// the enqueue, exactly once per admitted task.
func TestAdmissionWaitHistogram(t *testing.T) {
	s := stopped(2)
	g := s.NewGroup()
	g.Spawn(benchNoop{})
	if h := s.AdmissionWait(); h.Count != 0 {
		t.Fatalf("wait observed at enqueue: %+v", h)
	}
	if !s.takeInjected(s.workers[0]) {
		t.Fatal("takeInjected found nothing")
	}
	h := s.AdmissionWait()
	if h.Count != 1 {
		t.Fatalf("admission wait count = %d after one take, want 1", h.Count)
	}
	if h.Sum < 0 {
		t.Fatalf("negative admission wait sum %v", h.Sum)
	}
}

// TestAdmissionWaitLive checks the histogram accumulates on a running
// scheduler and renders through the registry with the standard histogram
// series.
func TestAdmissionWaitLive(t *testing.T) {
	s := newTest(t, Options{P: 2})
	g := s.NewGroup()
	for i := 0; i < 32; i++ {
		g.Spawn(benchNoop{})
	}
	g.Wait()
	if h := s.AdmissionWait(); h.Count == 0 {
		t.Fatal("no admission waits observed after 32 injected tasks")
	}
	out := s.Metrics().Render()
	for _, want := range []string{
		"repro_admission_wait_seconds_count",
		"repro_admission_wait_seconds_sum",
		"repro_uptime_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics render lacks %s:\n%s", want, out)
		}
	}
}

// TestProfilerCounts exercises the sampling profiler on a live scheduler:
// counts must sum to a multiple of P (each tick reads every worker exactly
// once) and every state must surface as a labelled registry series.
func TestProfilerCounts(t *testing.T) {
	const p = 2
	s := newTest(t, Options{P: p})
	s.StartProfiler(2000)
	g := s.NewGroup()
	var done atomic.Int64
	for i := 0; i < 8; i++ {
		g.Spawn(&traceTreeTask{depth: 5, done: &done})
	}
	g.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var sum int64
		for _, c := range s.ProfilerStateCounts() {
			sum += c
		}
		if sum >= 10*p {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("profiler accumulated only %d samples", sum)
		}
		time.Sleep(time.Millisecond)
	}
	s.StopProfiler()
	counts := s.ProfilerStateCounts()
	var sum int64
	for _, c := range counts {
		sum += c
	}
	if sum%p != 0 {
		t.Fatalf("sample counts %v sum to %d, not a multiple of P=%d", counts, sum, p)
	}
	out := s.Metrics().Render()
	for _, name := range trace.StateNames {
		want := `repro_worker_state_samples_total{state="` + name + `"}`
		if !strings.Contains(out, want) {
			t.Fatalf("metrics render lacks %s:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "repro_profiler_ticks_total") {
		t.Fatal("metrics render lacks repro_profiler_ticks_total")
	}
}

// TestDumpStateTraceFields pins the debug dump's new per-worker columns.
func TestDumpStateTraceFields(t *testing.T) {
	s := newTest(t, Options{P: 2})
	s.StartTrace()
	var done atomic.Int64
	g := s.NewGroup()
	g.Spawn(&traceTreeTask{depth: 3, done: &done})
	g.Wait()
	dump := s.DumpState()
	for _, want := range []string{"state=", "trace_dropped="} {
		if !strings.Contains(dump, want) {
			t.Fatalf("DumpState lacks %q:\n%s", want, dump)
		}
	}
	if !strings.Contains(s.TraceDump(), "spawn") {
		t.Fatalf("TraceDump lacks spawn events:\n%s", s.TraceDump())
	}
}
