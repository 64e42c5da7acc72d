package stats

import (
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestSnapshotAndAdd(t *testing.T) {
	var w Worker
	w[TasksRun].Add(3)
	w[Steals].Add(2)
	w[Registrations].Add(5)
	s := w.Snapshot()
	if s[TasksRun] != 3 || s[Steals] != 2 || s[Registrations] != 5 {
		t.Fatalf("snapshot = %v", s)
	}
	var total Snapshot
	total.Add(s)
	total.Add(s)
	if total[TasksRun] != 6 || total[Steals] != 4 || total[Registrations] != 10 {
		t.Fatalf("sum = %v", total)
	}
}

func TestWorkerPadded(t *testing.T) {
	if sz := unsafe.Sizeof(Worker{}); sz%64 != 0 {
		t.Fatalf("sizeof(Worker) = %d, not a multiple of 64: fix the trailing padding", sz)
	}
}

func TestConcurrentCounting(t *testing.T) {
	var w Worker
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				w[TasksRun].Add(1)
			}
		}()
	}
	wg.Wait()
	if got := w[TasksRun].Load(); got != 8000 {
		t.Fatalf("TasksRun = %d", got)
	}
}

// TestWorkerSnapshotExhaustive gives every Worker counter a distinct value
// and checks Snapshot carries each one over at the same index.
func TestWorkerSnapshotExhaustive(t *testing.T) {
	var w Worker
	for c := range NumCounters {
		w[c].Store(int64(100 + c))
	}
	snap := w.Snapshot()
	for c := range NumCounters {
		if got, want := snap[c], int64(100+c); got != want {
			t.Fatalf("Snapshot[%s] = %d, want %d (dropped by Snapshot())", Counters[c].Short, got, want)
		}
	}
}

// TestSnapshotAddExhaustive checks Add accumulates every counter: one
// missed by Add stays zero instead of doubling.
func TestSnapshotAddExhaustive(t *testing.T) {
	var a Snapshot
	for c := range NumCounters {
		a[c] = int64(7 + c)
	}
	var total Snapshot
	total.Add(a)
	total.Add(a)
	for c := range NumCounters {
		if got, want := total[c], int64(2*(7+c)); got != want {
			t.Fatalf("after two Adds, %s = %d, want %d (missed by Add)", Counters[c].Short, got, want)
		}
	}
}

// TestAdmissionSnapshotExhaustive gives every Admission counter a distinct
// value and checks the snapshot copies each one, and that the derived
// Pending is the tasks admitted and neither taken nor revoked.
func TestAdmissionSnapshotExhaustive(t *testing.T) {
	var a Admission
	for c := range NumAdmissionCounters {
		a[c].Store(int64(1000 + 10*c))
	}
	snap := a.Snapshot()
	for c := range NumAdmissionCounters {
		if got, want := snap[c], int64(1000+10*c); got != want {
			t.Fatalf("AdmissionSnapshot[%s] = %d, want %d", AdmissionCounters[c].Short, got, want)
		}
	}
	if got, want := snap.Pending(), snap[Injected]-snap[Taken]-snap[Revoked]; got != want {
		t.Fatalf("Pending = %d, want Injected−Taken−Revoked = %d", got, want)
	}

	var b Admission
	b[Injected].Add(10)
	b[Taken].Add(6)
	b[Revoked].Add(3)
	b[Rejected].Add(100) // refused tasks were never admitted
	s := b.Snapshot()
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want Injected−Taken−Revoked = 1", got)
	}
	if str := s.String(); !strings.Contains(str, "pending=1") || !strings.Contains(str, "rejected=100") {
		t.Fatalf("String = %q", str)
	}
}

// TestStringContainsFields holds the rendering of every counter, in order.
func TestStringContainsFields(t *testing.T) {
	var w Worker
	for c := range NumCounters {
		w[c].Add(int64(c) + 1)
	}
	const want = "tasks=1 team_tasks=2 teams=3 coord=4 spawns=5 steals=6 stolen=7 attempts=8 failed=9 reg=10 dereg=11 revoked=12 conflicts=13 cas_fail=14 backoffs=15 polls=16 inject_takes=17 parks=18 wakes=19"
	if got := w.Snapshot().String(); got != want {
		t.Fatalf("String =\n%s\nwant\n%s", got, want)
	}
}
