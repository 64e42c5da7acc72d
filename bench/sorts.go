package main

import (
	"context"
	"fmt"
	"time"

	"repro"
	"repro/internal/dist"
)

// The three sort workloads share one client shape: copy a pooled input into
// the client's scratch, sort it through the Runtime, check sortedness and
// checksum.

// ---------------------------------------------------------------- bigsort

// bigsort is the paper's headline experiment: one caller, one large
// mixed-mode quicksort at a time, the distribution cycling Random →
// Staggered per request.
type bigsort struct {
	sz   sizing
	pool []input // [kind][j], kind-major
}

var bigsortKinds = []dist.Kind{dist.Random, dist.Staggered}

func (w *bigsort) spec() spec {
	return spec{
		name:      "bigsort",
		clients:   1,
		warmup:    w.sz.bigsortWarm,
		spanEvery: 1,
		maxRate:   2000,
	}
}

func (w *bigsort) prepare(seed uint64) {
	in, _ := streams(seed, 0)
	w.pool = genInputs(in, bigsortKinds, w.sz.bigsortN, w.sz.bigsortPool)
}

func (w *bigsort) next(rng *dist.RNG, i int) request {
	kind := i % len(bigsortKinds)
	return request{Input: uint16(kind*w.sz.bigsortPool + rng.Intn(w.sz.bigsortPool))}
}

func (w *bigsort) label(rq request) string {
	return fmt.Sprintf("mmpar n=%d %v", w.sz.bigsortN, bigsortKinds[int(rq.Input)/w.sz.bigsortPool])
}

func (w *bigsort) newClient(rt *repro.Runtime[int32]) client {
	return &sortClient{rt: rt, pool: w.pool, scratch: make([]int32, w.sz.bigsortN),
		sort: func(c *sortClient, _ request, _ *callEnv) error {
			c.rt.SortMixedMode(c.buf, repro.MMOptions{})
			return nil
		}}
}

// --------------------------------------------------------------- smallreq

// smallreq is many tiny requests from nproc clients: the request path
// (group creation, inject, wake-up, quiescence, Wait) dominates. Sizes are
// drawn 3:1 so that the median sits inside the small mode and p90 inside the
// large one; an even split would put the median in the gap between them.
type smallreq struct {
	sz   sizing
	p    int
	pool []input // [size][j], size-major
}

func (w *smallreq) spec() spec {
	return spec{
		name:      "smallreq",
		clients:   w.p,
		warmup:    w.sz.smallWarm,
		spanEvery: 8,
		maxRate:   400000,
	}
}

func (w *smallreq) prepare(seed uint64) {
	in, _ := streams(seed, 0)
	w.pool = nil
	for _, n := range w.sz.smallSizes {
		w.pool = append(w.pool, genInputs(in, []dist.Kind{dist.Random}, n, w.sz.smallPool)...)
	}
}

func (w *smallreq) next(rng *dist.RNG, i int) request {
	size := 0
	if rng.Intn(4) == 3 {
		size = 1
	}
	return request{Op: uint8(i & 1), Input: uint16(size*w.sz.smallPool + rng.Intn(w.sz.smallPool))}
}

func (w *smallreq) label(rq request) string {
	algo := "fork"
	if rq.Op == 1 {
		algo = "mmpar"
	}
	return fmt.Sprintf("%s n=%d", algo, w.sz.smallSizes[int(rq.Input)/w.sz.smallPool])
}

func (w *smallreq) newClient(rt *repro.Runtime[int32]) client {
	return &sortClient{rt: rt, pool: w.pool, scratch: make([]int32, w.sz.smallSizes[1]),
		sort: func(c *sortClient, rq request, _ *callEnv) error {
			if rq.Op == 1 {
				c.rt.SortMixedMode(c.buf, repro.MMOptions{})
			} else {
				c.rt.SortForkJoin(c.buf)
			}
			return nil
		}}
}

// --------------------------------------------------------------- openloop

// openloop offers a fixed rate of mid-size sorts whatever the system does
// with them, each under a context deadline counted from its due time.
type openloop struct {
	sz   sizing
	pool []input
}

func (w *openloop) spec() spec {
	return spec{
		name:      "openloop",
		clients:   w.sz.openSlots,
		warmup:    w.sz.openWarm,
		spanEvery: 1,
		open:      true,
		opts:      repro.Options{MaxInject: w.sz.maxInject},
	}
}

func (w *openloop) prepare(seed uint64) {
	in, _ := streams(seed, 0)
	w.pool = genInputs(in, []dist.Kind{dist.Random}, w.sz.openN, w.sz.openPool)
}

func (w *openloop) next(rng *dist.RNG, i int) request {
	return request{Op: uint8(i & 1), Input: uint16(rng.Intn(w.sz.openPool))}
}

func (w *openloop) label(rq request) string {
	algo := "mmpar"
	if rq.Op == 1 {
		algo = "ssort"
	}
	return fmt.Sprintf("%s n=%d", algo, w.sz.openN)
}

func (w *openloop) newClient(rt *repro.Runtime[int32]) client {
	deadline := w.sz.openDeadline
	return &sortClient{rt: rt, pool: w.pool, scratch: make([]int32, w.sz.openN),
		reqs: make([]repro.SortRequest[int32], 1),
		sort: func(c *sortClient, rq request, env *callEnv) error {
			due := epoch.Add(time.Duration(env.windowStart + rq.Due))
			ctx, cancel := context.WithDeadline(context.Background(), due.Add(deadline))
			defer cancel()
			algo := repro.AlgoMixedMode
			if rq.Op == 1 {
				algo = repro.AlgoSamplesort
			}
			c.reqs[0] = repro.SortRequest[int32]{Data: c.buf, Algo: algo}
			return c.rt.SortManyCtx(ctx, c.reqs, repro.BatchOptions{})
		}}
}

// ------------------------------------------------------------- sortClient

type sortClient struct {
	rt      *repro.Runtime[int32]
	pool    []input
	scratch []int32
	buf     []int32                    // scratch cut to the staged input
	reqs    []repro.SortRequest[int32] // openloop: the one-element batch
	sort    func(c *sortClient, rq request, env *callEnv) error
}

func (c *sortClient) stage(rq request) {
	in := c.pool[rq.Input].data
	c.buf = c.scratch[:len(in)]
	copy(c.buf, in)
}

func (c *sortClient) call(rq request, env *callEnv) error { return c.sort(c, rq, env) }

func (c *sortClient) verify(rq request, err error) outcome {
	if out := classify(err); out != outOK {
		return out
	}
	if !sortedWith(c.buf, c.pool[rq.Input].sum) {
		return outWrong
	}
	return outOK
}
