package main

import "time"

// Fixed parameters of the benchmark. They are constants, not flags, so the
// two sides of any comparison run the same load; BENCHMARK.json carries the
// window length (run_seconds) and the regression bounds, README.md the
// reasoning behind each value.
const (
	// defaultSeed is the seed of the reference record; holdoutSeed is the
	// second seed a later claim must also hold on (it is never used while a
	// change is being written).
	defaultSeed uint64 = 1
	holdoutSeed uint64 = 20110604

	// segmentSeconds is the length of one segment of the timed window. Every
	// segment has its own counts, CPU time and latency sample, and the
	// end-to-end metrics are quantiles over the segments (metrics.go): the
	// reference box has slow phases of a few seconds (−20 % on analytics),
	// and a segment is shorter than those and still holds ~9 bigsort requests.
	segmentSeconds = 1.0

	// setupReps is how many times one run sets the workload up; setup_s is
	// the median, so one slow page-fault storm does not decide it.
	setupReps = 5

	// profilerHz is the worker-state sampling rate of the traced run.
	profilerHz = 199

	// probeReps is how many times each isolated layer probe repeats; the
	// reported value is the median.
	probeReps = 5
)

// sizing holds every size-dependent parameter, so the smoke test can run the
// same code at tiny sizes.
type sizing struct {
	bigsortN    int // elements of one bigsort request
	bigsortPool int // pre-generated inputs per distribution
	bigsortWarm int // warm-up requests

	fineN    int // elements summed by one finegrain request
	fineLeaf int // elements per leaf task
	fineWarm int

	smallSizes [2]int // smallreq sizes; the first is drawn 3 times in 4
	smallPool  int    // pre-generated inputs per size
	smallWarm  int    // warm-up requests per client

	analyticsSizes [2]int
	analyticsWarm  int // warm-up requests per client

	openN        int           // elements of one openloop sort
	openPool     int           // pre-generated inputs
	openRate     float64       // offered load, requests per second
	openDeadline time.Duration // context deadline L, from the due time
	openSLO      time.Duration // latency limit of slo_met_share
	openSlots    int           // issuer goroutines = most requests in flight
	openWarm     int
	maxInject    int // Options.MaxInject of the openloop Runtime

	probeSortN  int     // qsort/ssort/msort/par probes
	probeQueryN int     // query probes
	probeScale  float64 // multiplier of every probe's iteration count
}

// fullSizing is the load of the benchmark proper. It is sized for the
// reference box (2 CPUs, 2 MiB L2 per core): one bigsort input is 8 MiB,
// four times one L2; the openloop rate is 30–45 % of what the same request
// sustains in a closed loop there (the box's speed drifts by that much), and
// the deadline and the issuer slots leave room for a host stall of more than
// a second, because a run with failed requests measures the stall, not the code.
var fullSizing = sizing{
	bigsortN:    1 << 21,
	bigsortPool: 4,
	bigsortWarm: 3,

	fineN:    1 << 18, // 1 MiB of data + 1.3 MiB of task tree: inside one L2
	fineLeaf: 32,
	fineWarm: 50,

	smallSizes: [2]int{256, 4096},
	smallPool:  16,
	smallWarm:  2000,

	analyticsSizes: [2]int{65536, 262144},
	analyticsWarm:  60,

	openN:        65536,
	openPool:     8,
	openRate:     80,
	openDeadline: 2 * time.Second,
	openSLO:      50 * time.Millisecond,
	openSlots:    64,
	openWarm:     1,
	maxInject:    16,

	probeSortN:  1 << 20,
	probeQueryN: 1 << 18,
	probeScale:  1,
}

// tinySizing runs every workload in a few hundred milliseconds for the smoke
// test; its numbers mean nothing.
var tinySizing = sizing{
	bigsortN:    1 << 15,
	bigsortPool: 1,
	bigsortWarm: 1,

	fineN:    1 << 12,
	fineLeaf: 64,
	fineWarm: 2,

	smallSizes: [2]int{64, 512},
	smallPool:  2,
	smallWarm:  10,

	analyticsSizes: [2]int{2048, 8192},
	analyticsWarm:  6,

	openN:        2048,
	openPool:     2,
	openRate:     400,
	openDeadline: 2 * time.Second,
	openSLO:      time.Second,
	openSlots:    32,
	openWarm:     4,
	maxInject:    16,

	probeSortN:  1 << 14,
	probeQueryN: 1 << 13,
	probeScale:  0.01,
}
