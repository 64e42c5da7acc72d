package main

import (
	"path/filepath"
	"testing"
)

// Every workload runs for a moment at tiny sizes, untraced and traced, with
// verification on; the metric names and units of the runs are exactly the
// lists of BENCHMARK.json.
func TestSmokeEveryWorkload(t *testing.T) {
	_, bs, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(bs.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bs.Workloads), len(workloadNames))
	}
	probes, err := runProbes(tinySizing, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range workloadNames {
		if bs.Workloads[i].Name != name {
			t.Errorf("BENCHMARK.json workload %d is %q, want %q", i, bs.Workloads[i].Name, name)
		}
		cfg := runConfig{name: name, sz: tinySizing, seed: 1, seconds: 0.2}
		timed, err := runOne(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !timed.correct() || timed.failed() != 0 {
			t.Errorf("%s: untraced outcomes %v", name, timed.outcomes)
		}
		if err := checkNames(endToEnd(timed), bs.EndToEnd); err != nil {
			t.Errorf("%s: end-to-end metrics: %v", name, err)
		}

		cfg.traced, cfg.spansOut = true, filepath.Join(t.TempDir(), name+".spans.json")
		traced, err := runOne(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !traced.correct() || traced.failed() != 0 {
			t.Errorf("%s: traced outcomes %v", name, traced.outcomes)
		}
		if traced.spans.requests == 0 || traced.spans.closureErr > 0.01 {
			t.Errorf("%s: %d request spans, closure error %g", name, traced.spans.requests, traced.spans.closureErr)
		}
		if err := checkNames(perLayer(traced, probes), bs.PerLayer); err != nil {
			t.Errorf("%s: per-layer metrics: %v", name, err)
		}
	}
}
