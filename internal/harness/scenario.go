package harness

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/stats"
)

// Outcome is how one call of a Request ended.
type Outcome int

const (
	OK        Outcome = iota // completed; Check decides whether the result is right
	Failed                   // returned an error that is not the caller giving up
	Abandoned                // given up on (deadline or cancel); the result is undefined, so Check is skipped
)

// Request is one row of a client's request table. A client builds its table
// once, as closures over its own scratch buffers, so that issuing a request
// allocates nothing: allocations inside the timed loop would perturb the
// tail latencies being measured.
type Request struct {
	// Label names the Tally.PerLabel entry the row is counted under.
	Label string
	// N is how many requests one call of Do carries (0 means 1). Such a call
	// is one latency sample — its N requests complete together when the
	// call returns — and N requests in every counter: Requests, Failures
	// and Abandoned of its label (and so of the total, which is the sum of
	// the labels) and PeakInflight.
	N int
	// Prepare stages the input (untimed; may be nil). It gets the client's
	// random stream for rows that draw their own inputs.
	Prepare func(*dist.RNG)
	// Do issues the request; only this call is timed.
	Do func() Outcome
	// Check verifies the result of a Do that returned OK (untimed; nil when
	// there is nothing to verify).
	Check func() bool
}

// Scenario is a closed-loop load generator: Clients goroutines each draw
// rows uniformly from their own table and issue them back to back — a
// client's next request starts when its previous one has returned — until
// Duration has passed.
type Scenario struct {
	Clients  int
	Duration time.Duration
	Seed     uint64 // of the clients' request streams
	// Client builds the request table of client c. It is called before the
	// clock starts, so building scratch buffers costs no measured time.
	Client func(c int) []Request
}

// Counts is what a run observed of the calls under one label (of all calls
// when Label is empty). Latency has one sample per call; the counters are in
// requests (see Request.N).
type Counts struct {
	Label     string
	Requests  int64
	Failures  int64 // requests of failed calls and of failed checks
	Abandoned int64
	Latency   stats.Sample
}

func (k *Counts) add(o *Counts) {
	k.Requests += o.Requests
	k.Failures += o.Failures
	k.Abandoned += o.Abandoned
	k.Latency.Merge(&o.Latency)
}

// Tally is what a Scenario run observed: the Counts of every label, in
// order of first appearance in the clients' tables, and their sum.
type Tally struct {
	Elapsed      time.Duration
	PeakInflight int64 // most requests inside Do at one instant
	Counts
	PerLabel []Counts
}

// Run drives the scenario to its deadline and returns the merged tally of
// all clients.
func (sc Scenario) Run() *Tally {
	tables := make([][]Request, sc.Clients)
	var labels []string
	for c := range tables {
		tables[c] = sc.Client(c)
		for _, req := range tables[c] {
			if !slices.Contains(labels, req.Label) {
				labels = append(labels, req.Label)
			}
		}
	}
	counts := make([][]Counts, sc.Clients) // per client, per label
	for c := range counts {
		counts[c] = make([]Counts, len(labels))
	}
	var inflight, peak atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(sc.Duration)
	for c, table := range tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := dist.NewRNG(sc.Seed).Split()
			rng.Skip(uint64(c) << 32) // disjoint 2^32-draw lanes per client
			for time.Now().Before(deadline) {
				req := &table[rng.Intn(len(table))]
				n := int64(max(req.N, 1))
				if req.Prepare != nil {
					req.Prepare(rng)
				}
				cur := inflight.Add(n)
				for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
				}
				t0 := time.Now()
				out := req.Do()
				el := time.Since(t0)
				inflight.Add(-n)
				k := &counts[c][slices.Index(labels, req.Label)]
				k.Latency.AddDuration(el)
				k.Requests += n
				switch {
				case out == Abandoned:
					k.Abandoned += n
				case out == Failed || req.Check != nil && !req.Check():
					k.Failures += n
				}
			}
		}()
	}
	wg.Wait()
	t := &Tally{Elapsed: time.Since(start), PeakInflight: peak.Load(), PerLabel: make([]Counts, len(labels))}
	for i, l := range labels {
		t.PerLabel[i].Label = l
		for c := range counts {
			t.PerLabel[i].add(&counts[c][i])
		}
		t.add(&t.PerLabel[i])
	}
	return t
}
