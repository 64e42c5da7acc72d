package harness

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/dist"
)

func testInputs() [][]int32 {
	return [][]int32{dist.Generate(dist.Random, 16384, 1), dist.Generate(dist.Staggered, 65536, 2)}
}

func testRuntime(t *testing.T) *repro.Runtime[int32] {
	rt := repro.NewRuntime[int32](repro.Options{P: 2, MaxInject: 8})
	t.Cleanup(rt.Close)
	return rt
}

// checkTally asserts what holds for every mix: something ran, nothing
// failed, the per-label request counts add up to the total (a call carrying
// N requests is N requests under its label too), and the in-flight peak
// stays within what the clients can have outstanding at once.
func checkTally(t *testing.T, ty *Tally, maxInflight int64, labels ...string) {
	t.Helper()
	if ty.Requests == 0 || ty.Failures != 0 {
		t.Fatalf("requests = %d, failures = %d; want > 0 and 0", ty.Requests, ty.Failures)
	}
	var sum int64
	var calls int
	var got []string
	for _, lc := range ty.PerLabel {
		got = append(got, lc.Label)
		sum += lc.Requests
		calls += lc.Latency.N()
	}
	if sum != ty.Requests || calls != ty.Latency.N() {
		t.Errorf("per-label requests sum to %d of %d, samples to %d of %d", sum, ty.Requests, calls, ty.Latency.N())
	}
	if !slices.Equal(got, labels) {
		t.Errorf("labels = %v, want %v (table order)", got, labels)
	}
	if ty.PeakInflight < 1 || ty.PeakInflight > maxInflight {
		t.Errorf("PeakInflight = %d, want in [1, %d]", ty.PeakInflight, maxInflight)
	}
}

func TestSortMix(t *testing.T) {
	rt := testRuntime(t)
	algos := []Algorithm{SeqSTL, MMPar, Fork, SSort, MSort}
	ty := Scenario{Clients: 4, Duration: 150 * time.Millisecond, Seed: 1, Client: SortMix(rt, testInputs(), algos)}.Run()
	checkTally(t, ty, 4, "Seq/STL", "MMPar", "Fork", "SSort", "MSort")
	if ty.Abandoned != 0 {
		t.Errorf("Abandoned = %d in a mix without deadlines", ty.Abandoned)
	}
}

func TestAnalyticsMix(t *testing.T) {
	rt := testRuntime(t)
	ty := Scenario{Clients: 4, Duration: 150 * time.Millisecond, Seed: 1, Client: AnalyticsMix(rt, testInputs())}.Run()
	checkTally(t, ty, 4, "filter", "groupby", "aggregate", "topk", "join", "plan")
}

func TestAbandonMix(t *testing.T) {
	rt := testRuntime(t)
	client, err := AbandonMix(rt, testInputs(), []Algorithm{MMPar, MSort}, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	ty := Scenario{Clients: 4, Duration: 150 * time.Millisecond, Seed: 1, Client: client}.Run()
	// Two interactive clients of one request each, two batch clients of four.
	checkTally(t, ty, 2+2*abandonBatch, "interactive", "batch")
	if b := ty.PerLabel[1]; b.Requests != abandonBatch*int64(b.Latency.N()) {
		t.Errorf("batch: %d requests over %d calls, want %d per call", b.Requests, b.Latency.N(), abandonBatch)
	}
	adm := rt.Scheduler().Admission()
	if ty.Abandoned == 0 || adm.Revoked+adm.Canceled == 0 {
		t.Errorf("a 1 ms deadline abandoned %d requests (revoked %d, canceled %d); want some", ty.Abandoned, adm.Revoked, adm.Canceled)
	}
	// Every call waited for its group's true drain, so nothing is pending.
	if adm.Injected != adm.Taken+adm.Revoked {
		t.Errorf("injected %d != taken %d + revoked %d after Run returned", adm.Injected, adm.Taken, adm.Revoked)
	}

	if _, err := AbandonMix(rt, testInputs(), []Algorithm{MMPar, SeqSTL}, time.Millisecond); err == nil {
		t.Error("AbandonMix accepted seqstl, which SortMany cannot run")
	}
}

// TestScenarioCountsFailures pins the path that makes cmd/throughput exit 1:
// a Do that reports Failed and a Check that reports false each fail the
// requests of that call, and an abandoned call is not checked.
func TestScenarioCountsFailures(t *testing.T) {
	var good, poisoned, wrong, givenUp int64
	table := []Request{
		{Label: "good", Do: func() Outcome { good++; return OK }, Check: func() bool { return true }},
		{Label: "poisoned", Do: func() Outcome { poisoned++; return Failed }},
		{Label: "wrong", N: 3, Do: func() Outcome { wrong++; return OK }, Check: func() bool { return false }},
		{Label: "givenup", N: 2, Do: func() Outcome { givenUp++; return Abandoned }, Check: func() bool { t.Error("Check ran on an abandoned call"); return false }},
	}
	ty := Scenario{Clients: 1, Duration: 20 * time.Millisecond, Client: func(int) []Request { return table }}.Run()
	if poisoned == 0 || wrong == 0 || givenUp == 0 {
		t.Fatalf("20 ms drew poisoned %d, wrong %d, givenup %d times; want each at least once", poisoned, wrong, givenUp)
	}
	if want := poisoned + 3*wrong; ty.Failures != want {
		t.Errorf("Failures = %d, want %d (%d failed calls + 3 × %d failed checks)", ty.Failures, want, poisoned, wrong)
	}
	if ty.Abandoned != 2*givenUp {
		t.Errorf("Abandoned = %d, want 2 × %d", ty.Abandoned, givenUp)
	}
	if want := good + poisoned + 3*wrong + 2*givenUp; ty.Requests != want {
		t.Errorf("Requests = %d, want %d", ty.Requests, want)
	}
}

func TestScenarioRunsOnceAndStops(t *testing.T) {
	const d = 100 * time.Millisecond
	var calls atomic.Int64
	one := []Request{{Label: "only", Do: func() Outcome { calls.Add(1); time.Sleep(time.Millisecond); return OK }}}
	ty := Scenario{Clients: 1, Duration: d, Client: func(int) []Request { return one }}.Run()
	if calls.Load() == 0 || ty.Requests != calls.Load() {
		t.Errorf("ran %d calls, tallied %d requests; want equal and > 0", calls.Load(), ty.Requests)
	}
	if ty.Elapsed < d || ty.Elapsed > 2*d {
		t.Errorf("Elapsed = %v, want in [%v, %v]", ty.Elapsed, d, 2*d)
	}
	if ty.PeakInflight != 1 {
		t.Errorf("PeakInflight = %d with one client of one request", ty.PeakInflight)
	}
}
