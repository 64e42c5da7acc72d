package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchSpec is BENCHMARK.json: the metric lists with their units and
// regression bounds are read from it, never repeated in code, so the file
// the driver checks is the file this program checks itself against.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// why returns the recorded reason a workload exists.
func (bs *benchSpec) why(name string) string {
	for _, w := range bs.Workloads {
		if w.Name == name {
			return w.Why
		}
	}
	return ""
}

// loadSpec finds BENCHMARK.json in the working directory or its parent (the
// program runs from the repository root or from bench/) and returns the
// repository root with it.
func loadSpec() (root string, bs *benchSpec, err error) {
	for _, dir := range []string{".", ".."} {
		data, rerr := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if rerr != nil {
			continue
		}
		bs = new(benchSpec)
		if err := json.Unmarshal(data, bs); err != nil {
			return "", nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return dir, bs, nil
	}
	return "", nil, fmt.Errorf("BENCHMARK.json not found in . or ..; run from the repository root or from bench/")
}

// checkNames reports any difference between the metrics a run produced and
// the list BENCHMARK.json promises, by name and unit.
func checkNames(m metrics, want []metricSpec) error {
	if len(m.names) != len(want) {
		return fmt.Errorf("run produced %d metrics, BENCHMARK.json lists %d", len(m.names), len(want))
	}
	for _, w := range want {
		got, ok := m.by[w.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json lists %s, the run did not produce it", w.Name)
		}
		if got.Unit != w.Unit {
			return fmt.Errorf("%s: unit %q, BENCHMARK.json says %q", w.Name, got.Unit, w.Unit)
		}
	}
	return nil
}

func printMetrics(w io.Writer, workload string, m metrics) {
	for _, n := range m.names {
		x := m.by[n]
		fmt.Fprintf(w, "%-10s %-36s %14.6g %-8s n=%d\n", workload, n, x.Value, x.Unit, x.N)
	}
}

// correct reports whether every output of the run verified and no call
// ended in an error the load does not explain. Deadline misses, refusals and
// saturation are failed requests, not wrong ones.
func (r *runResult) correct() bool {
	return r.outcomes[outWrong]+r.outcomes[outError]+r.outcomes[outShutdown] == 0
}

// ---- result.json of the suite mode.

type resultFile struct {
	Host        hostInfo    `json:"host"`
	Seed        uint64      `json:"seed"`
	HoldoutSeed uint64      `json:"holdout_seed"`
	Seconds     float64     `json:"window_seconds"`
	SegmentS    float64     `json:"segment_seconds"`
	TracedSplit string      `json:"traced_window"`
	Sets        []setResult `json:"sets"`
	Checks      []pairCheck `json:"repeatability,omitempty"`
}

type setResult struct {
	Workloads []workloadResult  `json:"workloads"`
	Probes    map[string]metric `json:"probes"`
}

type workloadResult struct {
	Name       string            `json:"name"`
	Why        string            `json:"why"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Completed  int               `json:"completed"`
	Outcomes   map[string]int    `json:"outcomes"`
	SetupS     []float64         `json:"setup_s_samples"`
	Latency    timing            `json:"latency"`
	Segments   []segment         `json:"segments"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	Diagnostic map[string]metric `json:"diagnostic"`
	PerLayer   map[string]metric `json:"per_layer"`
}

// pairCheck is the repeatability verdict of one gated (metric, workload)
// pair over the sets of one invocation.
type pairCheck struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Values   []float64 `json:"values"`
	Spread   float64   `json:"spread"`
	Bound    float64   `json:"bound"`
	OK       bool      `json:"ok"`
}

// suite runs, sets times over: for every workload an untraced timed run and
// a traced run, then the probes. It writes bench/out/result.json and one
// spans file per workload, prints every metric, and reports false when an
// output was wrong or two sets disagree beyond a bound.
func suite(bs *benchSpec, root, outDir string, names []string, seed uint64, seconds float64, sets int) (bool, error) {
	out := resultFile{Host: readHost(root), Seed: seed, HoldoutSeed: holdoutSeed, Seconds: seconds, SegmentS: segmentSeconds,
		TracedSplit: "untraced reference half, then traced half, of one window"}
	ok := true
	for set := 0; set < sets; set++ {
		var sr setResult
		for _, name := range names {
			fmt.Printf("== set %d/%d  %s\n", set+1, sets, name)
			cfg := runConfig{name: name, sz: fullSizing, seed: seed, seconds: seconds}
			timed, err := runOne(cfg)
			if err != nil {
				return false, err
			}
			cfg.traced, cfg.spansOut = true, filepath.Join(outDir, name+".spans.json")
			traced, err := runOne(cfg)
			if err != nil {
				return false, err
			}
			e2e, diag, layer := endToEnd(timed), diagnostics(timed), layerMetrics(traced)
			printMetrics(os.Stdout, name, e2e)
			printMetrics(os.Stdout, name, diag)
			printMetrics(os.Stdout, name, layer)
			wr := workloadResult{
				Name: name, Why: bs.why(name), Correct: timed.correct() && traced.correct(),
				Attempted: timed.attempted, Completed: timed.completed(), Outcomes: map[string]int{},
				SetupS: timed.setupS, Latency: summarizeMS(timed.lat), Segments: timed.segs,
				EndToEnd: e2e.by, Diagnostic: diag.by, PerLayer: layer.by,
			}
			for o, n := range timed.outcomes {
				wr.Outcomes[outcomeNames[o]] = n
			}
			if !wr.Correct {
				fmt.Printf("%s: WRONG OUTPUT or unexpected error: timed %v traced %v\n", name, timed.outcomes, traced.outcomes)
				ok = false
			}
			sr.Workloads = append(sr.Workloads, wr)
		}
		fmt.Printf("== set %d/%d  probes\n", set+1, sets)
		probes, err := runProbes(fullSizing, seed)
		if err != nil {
			return false, err
		}
		printMetrics(os.Stdout, "probes", probes)
		sr.Probes = probes.by
		out.Sets = append(out.Sets, sr)
	}
	if sets > 1 {
		out.Checks = repeatability(bs, out.Sets)
		fmt.Println("== repeatability: spread of each gated metric over the sets against its bound")
		for _, c := range out.Checks {
			verdict := "ok"
			if !c.OK {
				verdict, ok = "DISAGREE", false
			}
			fmt.Printf("%-10s %-20s spread %6.3f  bound %5.2f  %s\n", c.Workload, c.Metric, c.Spread, c.Bound, verdict)
		}
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return false, err
	}
	path := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Println("wrote", path)
	return ok, nil
}

// repeatability compares, for every gated metric on every workload, the
// spread of its values over the sets with the bound of BENCHMARK.json.
func repeatability(bs *benchSpec, sets []setResult) []pairCheck {
	var checks []pairCheck
	for w := range sets[0].Workloads {
		for _, ms := range bs.EndToEnd {
			c := pairCheck{Workload: sets[0].Workloads[w].Name, Metric: ms.Name, Bound: ms.Bound}
			for _, s := range sets {
				c.Values = append(c.Values, s.Workloads[w].EndToEnd[ms.Name].Value)
			}
			c.Spread = spread(c.Values)
			// As in the driver's acceptance, the spread of setup_s is shown
			// but decides nothing: only its median is compared.
			c.OK = c.Spread <= c.Bound || ms.Name == "setup_s"
			checks = append(checks, c)
		}
	}
	return checks
}
