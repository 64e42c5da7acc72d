package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// runWithDeadline runs fn and fails with a scheduler state dump if it does
// not finish in time — the main tool for catching protocol deadlocks.
func runWithDeadline(t *testing.T, s *Scheduler, d time.Duration, fn func()) {
	t.Helper()
	doneCh := make(chan struct{})
	go func() {
		fn()
		close(doneCh)
	}()
	select {
	case <-doneCh:
	case <-time.After(d):
		t.Fatalf("deadline exceeded; scheduler state:\n%s\ntrace:\n%s",
			s.DumpState(), s.TraceDump())
	}
}

func TestManyTeamTasksDump(t *testing.T) {
	const p = 8
	s := newTest(t, Options{P: p})
	s.StartTrace()
	var execs atomic.Int64
	want := int64(0)
	for i := 0; i < 50; i++ {
		for r := 1; r <= p; r *= 2 {
			want += int64(r)
			s.Spawn(Func(r, func(*Ctx) { execs.Add(1) }))
		}
	}
	runWithDeadline(t, s, 10*time.Second, s.Wait)
	if got := execs.Load(); got != want {
		t.Fatalf("participant executions = %d, want %d", got, want)
	}
	// The dump carries the observability fields: the in-flight total (zero
	// once Wait returned) and each worker's free-list occupancy.
	dump := s.DumpState()
	if !strings.HasPrefix(dump, "inflight=0 ") {
		t.Fatalf("dump does not report a drained scheduler:\n%s", dump)
	}
	if !strings.Contains(dump, " free=") {
		t.Fatalf("dump lacks per-worker free-list occupancy:\n%s", dump)
	}
}
