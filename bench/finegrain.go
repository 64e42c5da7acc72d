package main

import (
	"fmt"

	"repro"
	"repro/internal/core"
	"repro/internal/dist"
)

// finegrain is one binary fork-join sum per request: ~2·n/leaf tasks of a
// few tens of nanoseconds each through Ctx.Spawn and TaskGroup, so the
// interior task path (deque push/pop, spawn → run → done, node recycling,
// in-flight accounting) is nearly all of the time. No teams, no sort kernel.
// The harness builds the request from layer calls itself (NewGroup, Spawn,
// Wait), so it can record the spawn / queue / exec spans.
//
// It is the one workload that does not run on nproc workers. On the
// reference box two workers make its numbers follow the host's cross-vCPU
// cache-line latency (every spawn and completion is an RMW on the group's
// shared counter): whole runs fell into a fast or a slow mode 25 % apart,
// five back-to-back sets did not hold a 0.25 bound. With one worker and a
// working set that fits the L2 (2^18 elements, not 2^20) ten runs stay
// within a few percent. The contended path is still measured, ungated, by
// the probes core.fanout_ns_per_task and core.steal_imbalance_ns_per_task.
type finegrain struct {
	sz   sizing
	data []int32
	want int64
}

func (w *finegrain) spec() spec {
	return spec{
		name:      "finegrain",
		clients:   1,
		warmup:    w.sz.fineWarm,
		spanEvery: 1,
		maxRate:   50000,
		workers:   1,
	}
}

func (w *finegrain) prepare(seed uint64) {
	in, _ := streams(seed, 0)
	w.data = dist.Generate(dist.Random, w.sz.fineN, in.Next())
	w.want = 0
	for _, v := range w.data {
		w.want += int64(v)
	}
}

func (w *finegrain) next(*dist.RNG, int) request { return request{} }

func (w *finegrain) label(request) string {
	return fmt.Sprintf("forkjoin-sum n=%d leaf=%d", w.sz.fineN, w.sz.fineLeaf)
}

func (w *finegrain) newClient(rt *repro.Runtime[int32]) client {
	c := &fineClient{s: rt.Scheduler(), want: w.want}
	c.nodes = buildSumTree(w.data, w.sz.fineLeaf)
	return c
}

// sumNode is one task of the preallocated sum tree, heap-indexed: the
// children of node i are 2i+1 and 2i+2. Reusing the tree keeps the request
// free of harness allocations, so alloc_kb_per_req is the scheduler's own.
type sumNode struct {
	nodes []sumNode
	data  []int32 // the node's range
	i     int
	leaf  bool
	tg    core.TaskGroup
	sum   int64
}

// buildSumTree splits data in halves until a range has at most leaf
// elements; len(data)/leaf must be a power of two.
func buildSumTree(data []int32, leaf int) []sumNode {
	leaves := len(data) / leaf
	nodes := make([]sumNode, 2*leaves-1)
	var fill func(i int, d []int32)
	fill = func(i int, d []int32) {
		n := &nodes[i]
		n.nodes, n.data, n.i, n.leaf = nodes, d, i, len(d) <= leaf
		if !n.leaf {
			fill(2*i+1, d[:len(d)/2])
			fill(2*i+2, d[len(d)/2:])
		}
	}
	fill(0, data)
	return nodes
}

func (n *sumNode) Threads() int { return 1 }

func (n *sumNode) Run(ctx *core.Ctx) {
	if n.leaf {
		var s int64
		for _, v := range n.data {
			s += int64(v)
		}
		n.sum = s
		return
	}
	l, r := &n.nodes[2*n.i+1], &n.nodes[2*n.i+2]
	n.tg.Spawn(ctx, l)
	n.tg.Spawn(ctx, r)
	n.tg.Wait(ctx)
	n.sum = l.sum + r.sum
}

// fineClient is also the harness-wrapped root task: it stamps when the root
// body starts, which splits the call into queue wait and execution.
type fineClient struct {
	s         *repro.Scheduler
	nodes     []sumNode
	rootStart int64
	want      int64
}

func (c *fineClient) Threads() int { return 1 }

func (c *fineClient) Run(ctx *core.Ctx) {
	c.rootStart = now()
	c.nodes[0].Run(ctx)
}

func (c *fineClient) stage(request) { c.nodes[0].sum = 0 }

func (c *fineClient) call(_ request, env *callEnv) error {
	g := c.s.NewGroup()
	if err := g.Spawn(c); err != nil {
		return err
	}
	env.spawnRet = now()
	err := g.WaitErr()
	env.layered, env.rootStart = true, c.rootStart
	return err
}

func (c *fineClient) verify(_ request, err error) outcome {
	if out := classify(err); out != outOK {
		return out
	}
	if c.nodes[0].sum != c.want {
		return outWrong
	}
	return outOK
}
