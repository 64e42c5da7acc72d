// Command bench is the repository's benchmark: five named workloads driven
// through the public API of repro.Runtime and the scheduler, every output
// verified, end-to-end metrics from an untraced run, per-layer metrics from
// a traced run plus isolated probes of each layer. README.md defines every
// metric and says which layer metric should move which end-to-end metric.
//
// Two ways to run it, both through bench/run.sh from the repository root
// (or `go run .` inside bench/):
//
//	run.sh -seed 1 [-workload W] [-sets K]                  the whole suite
//	run.sh --workload W --seed N --seconds S --trace 0|1    one run, one JSON line
//
// The second form is the contract of BENCHMARK.json: one workload, one
// window; with --trace 0 the last line of standard output carries the
// end-to-end metrics, with --trace 1 the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

func main() {
	workload := flag.String("workload", "", "run only this workload (default: all five)")
	seed := flag.Uint64("seed", defaultSeed, "seed of inputs, request sequences and due times")
	seconds := flag.Float64("seconds", 0, "window length in seconds (default: run_seconds of BENCHMARK.json)")
	traceMode := flag.Int("trace", -1, "one run with one JSON result line: 0 = untraced, end-to-end metrics; 1 = traced, per-layer metrics")
	sets := flag.Int("sets", 1, "suite mode: run the whole suite this many times and check that the sets agree within the bounds")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	root, bs, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(bs.RunSeconds)
	}
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}

	if *workload != "" && !slices.Contains(workloadNames, *workload) {
		fatal(fmt.Errorf("unknown workload %q (have %v)", *workload, workloadNames))
	}
	if *traceMode >= 0 {
		if *workload == "" {
			fatal(fmt.Errorf("-trace needs -workload, one of %v", workloadNames))
		}
		if err := driverRun(bs, *workload, *seed, *seconds, *traceMode == 1, outDir); err != nil {
			fatal(err)
		}
		return
	}

	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}
	ok, err := suite(bs, root, outDir, names, *seed, *seconds, *sets)
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// driverRun is one run under the contract of BENCHMARK.json: progress goes
// to standard error, the last line of standard output is the result object.
func driverRun(bs *benchSpec, name string, seed uint64, seconds float64, traced bool, outDir string) error {
	cfg := runConfig{name: name, sz: fullSizing, seed: seed, seconds: seconds, traced: traced}
	if traced {
		cfg.spansOut = filepath.Join(outDir, name+".spans.json")
	}
	res, err := runOne(cfg)
	if err != nil {
		return err
	}
	var m metrics
	want := bs.EndToEnd
	if traced {
		want = bs.PerLayer
		probes, err := runProbes(cfg.sz, seed)
		if err != nil {
			return err
		}
		m = perLayer(res, probes)
	} else {
		m = endToEnd(res)
	}
	fmt.Fprintf(os.Stderr, "%-10s set-ups %.4g s\n", name, res.setupS)
	for i, sg := range res.segs {
		fmt.Fprintf(os.Stderr, "%-10s segment %2d  %10.5g req/s  p50 %9.5g ms  cpu %9.5g ms/req\n", name, i, sg.ReqPerS, sg.P50MS, sg.CPUMSPerReq)
	}
	printMetrics(os.Stderr, name, m)
	if err := checkNames(m, want); err != nil {
		return err
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.attempted, res.failed(), map[string]value{}}
	for _, n := range m.names {
		line.Metrics[n] = value{m.by[n].Value, m.by[n].Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
