package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/dist"
)

// epoch is the time base of every timestamp the harness takes.
var epoch = time.Now()

// now returns monotonic nanoseconds since epoch.
func now() int64 { return int64(time.Since(epoch)) }

// request is one scheduled request: everything the schedule decides about it
// and nothing else, so two schedules compare with ==.
type request struct {
	Op    uint8  // workload-specific operation or algorithm
	Input uint16 // index into the workload's input pool
	Due   int64  // open loop: ns after the window start; 0 in a closed loop
}

// callEnv is what a client's call sees of the run, and where a client that
// builds its request from layer calls (finegrain) leaves the inner
// timestamps for the span recorder.
type callEnv struct {
	windowStart int64 // ns since epoch; request due times are relative to it

	layered   bool  // the call filled in the two timestamps below
	spawnRet  int64 // Group.Spawn returned
	rootStart int64 // the harness-wrapped root body started
}

// client is one closed-loop client (or one open-loop issuer slot): it owns
// the preallocated scratch of its requests. The three steps are timed
// separately; only call is latency.
type client interface {
	stage(rq request)                     // harness time: input into scratch
	call(rq request, env *callEnv) error  // the public call under test
	verify(rq request, err error) outcome // harness time: output check
}

// spec is the fixed shape of a workload.
type spec struct {
	name      string
	clients   int // closed loop: client goroutines; open loop: issuer slots
	warmup    int // warm-up requests per client, a fixed count
	spanEvery int // the traced run records the spans of every n-th request
	maxRate   int // upper bound of requests/s per client, sizes the latency buffers
	open      bool
	workers   int // scheduler workers; 0 means nproc
	opts      repro.Options
}

// workload generates inputs and requests from a seed and makes clients. The
// program under test receives only what prepare and next produce.
type workload interface {
	spec() spec
	// prepare builds the input pool and the expected results from seed. It
	// is the part of set-up that depends on the workload.
	prepare(seed uint64)
	// next draws request i of one client's sequence from that client's
	// generator. It reads nothing but rng, i and the pool shape.
	next(rng *dist.RNG, i int) request
	// label renders a request's size, kind and algorithm.
	label(rq request) string
	newClient(rt *repro.Runtime[int32]) client
}

// workloadNames lists the workloads in report order. The names are fixed:
// later issues cite them.
var workloadNames = []string{"bigsort", "finegrain", "smallreq", "analytics", "openloop"}

func newWorkload(name string, sz sizing, p int) (workload, error) {
	switch name {
	case "bigsort":
		return &bigsort{sz: sz}, nil
	case "finegrain":
		return &finegrain{sz: sz}, nil
	case "smallreq":
		return &smallreq{sz: sz, p: p}, nil
	case "analytics":
		return &analytics{sz: sz, p: p}, nil
	case "openloop":
		return &openloop{sz: sz}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// input is one pre-generated sort input with its order-independent checksum.
type input struct {
	data []int32
	sum  checksum
}

// genInputs generates perKind inputs of n elements for every kind, in kind-
// major order, each from its own draw of rng.
func genInputs(rng *dist.RNG, kinds []dist.Kind, n, perKind int) []input {
	var pool []input
	for _, k := range kinds {
		for j := 0; j < perKind; j++ {
			d := dist.Generate(k, n, rng.Next())
			pool = append(pool, input{data: d, sum: checksumOf(d)})
		}
	}
	return pool
}

// streams derives the generators of one run from its seed: one for the
// inputs, then one per client (or, open loop, one for the schedule).
func streams(seed uint64, clients int) (inputs *dist.RNG, perClient []*dist.RNG) {
	master := dist.NewRNG(seed)
	inputs = master.Split()
	for c := 0; c < clients; c++ {
		perClient = append(perClient, master.Split())
	}
	return inputs, perClient
}
