package core

// Core microbenchmarks: the per-task hot path of the scheduler, as developer
// tools (the numbers of record are the core.* probes of bench/run.sh). The
// suite covers the paths the paper's "no extra overhead for r = 1 tasks"
// claim depends on:
//
//   SpawnJoinPingPong   spawn one task, join it (TaskGroup), repeat — the
//                       fork-join latency floor of Algorithm 10 recursion
//   EmptyTaskFanout     waves of empty tasks through spawn→run→done — the
//                       interior throughput ceiling (allocs/op matters here)
//   StealImbalance      one producer, p−1 thieves — the steal path under a
//                       pathological imbalance
//   InjectedTakeEmpty   the idle coordinator's poll of the inject queues
//                       when no external work exists
//   InjectLatency       external submission end to end: admit → take → run
//                       → quiescence wakeup
//   ForkJoinTree        a binary TaskGroup tree with 32-element leaves — the
//                       joined-child path end to end, per task
//
// The benchmarks run on tiny teams so they are meaningful on any machine;
// wall-clock numbers are only comparable within one host, which is all the
// recorded trajectory needs.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// benchNoop is a reusable single-threaded no-op task. The same value is
// spawned over and over, so benchmarks exercise only the scheduler's own
// per-task costs (node, queue, accounting), not task construction.
type benchNoop struct{}

func (benchNoop) Threads() int { return 1 }
func (benchNoop) Run(*Ctx)     {}

// benchCountdown decrements a shared counter; like benchNoop the one value
// is spawned repeatedly.
type benchCountdown struct {
	remaining atomic.Int64
}

func (t *benchCountdown) Threads() int { return 1 }
func (t *benchCountdown) Run(*Ctx)     { t.remaining.Add(-1) }

// restoreGMP undoes the GOMAXPROCS raise of Scheduler.New when the
// benchmark ends, so the testing package does not warn about leaked state.
func restoreGMP(b *testing.B) {
	old := runtime.GOMAXPROCS(0)
	b.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// onWorker runs fn inside a task on s and blocks until fn returns, giving
// benchmarks an interior (Ctx-bearing) vantage point.
func onWorker(s *Scheduler, fn func(ctx *Ctx)) {
	done := make(chan struct{})
	s.Spawn(Solo(func(ctx *Ctx) {
		fn(ctx)
		close(done)
	}))
	<-done
}

// drainOwn helps run the worker's own level-0 queue until the countdown
// reaches zero (what TaskGroup.Wait does, without the steal rounds).
func drainOwn(ctx *Ctx, ct *benchCountdown) {
	w := ctx.w
	for ct.remaining.Load() > 0 {
		if n := w.queues[0].PopBottom(); n != nil {
			w.runSolo(n)
		} else {
			runtime.Gosched()
		}
	}
}

func BenchmarkSpawnJoinPingPong(b *testing.B) {
	restoreGMP(b)
	s := New(Options{P: 2})
	defer s.Shutdown()
	b.ReportAllocs()
	onWorker(s, func(ctx *Ctx) {
		var tg TaskGroup
		child := benchNoop{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tg.Spawn(ctx, child)
			tg.Wait(ctx)
		}
	})
}

func BenchmarkEmptyTaskFanout(b *testing.B) {
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			restoreGMP(b)
			s := New(Options{P: p})
			defer s.Shutdown()
			b.ReportAllocs()
			onWorker(s, func(ctx *Ctx) {
				const wave = 256
				ct := &benchCountdown{}
				b.ResetTimer()
				for left := b.N; left > 0; {
					k := wave
					if k > left {
						k = left
					}
					left -= k
					ct.remaining.Store(int64(k))
					for i := 0; i < k; i++ {
						ctx.Spawn(ct)
					}
					drainOwn(ctx, ct)
				}
			})
		})
	}
}

func BenchmarkStealImbalance(b *testing.B) {
	restoreGMP(b)
	const p = 4
	s := New(Options{P: p})
	defer s.Shutdown()
	b.ReportAllocs()
	onWorker(s, func(ctx *Ctx) {
		const wave = 256
		ct := &benchCountdown{}
		b.ResetTimer()
		for left := b.N; left > 0; {
			k := wave
			if k > left {
				k = left
			}
			left -= k
			ct.remaining.Store(int64(k))
			for i := 0; i < k; i++ {
				ctx.Spawn(ct)
			}
			// The producer only yields: every task is drained by thieves,
			// keeping the steal path hot.
			for ct.remaining.Load() > 0 {
				runtime.Gosched()
			}
		}
	})
}

func BenchmarkInjectedTakeEmpty(b *testing.B) {
	s := build(Options{P: 2}) // unstarted: the benchmark is the poll loop
	w := s.workers[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s.takeInjected(w) {
			b.Fatal("unexpected injected work")
		}
	}
}

func BenchmarkInjectLatency(b *testing.B) {
	restoreGMP(b)
	s := New(Options{P: 2})
	defer s.Shutdown()
	g := s.NewGroup()
	task := benchNoop{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Run(task)
	}
}

// benchSumNode is one task of a preallocated binary fork-join sum tree,
// heap-indexed (children of i are 2i+1 and 2i+2): interior nodes spawn both
// halves through their TaskGroup and join, leaves sum benchLeaf elements.
type benchSumNode struct {
	nodes []benchSumNode
	data  []int32
	i     int
	tg    TaskGroup
	sum   int64
}

const benchLeaf = 32

func (n *benchSumNode) Threads() int { return 1 }

func (n *benchSumNode) Run(ctx *Ctx) {
	if len(n.data) <= benchLeaf {
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

func newBenchSumTree(data []int32) []benchSumNode {
	nodes := make([]benchSumNode, 2*len(data)/benchLeaf-1)
	var fill func(i int, d []int32)
	fill = func(i int, d []int32) {
		nodes[i] = benchSumNode{nodes: nodes, data: d, i: i}
		if len(d) > benchLeaf {
			fill(2*i+1, d[:len(d)/2])
			fill(2*i+2, d[len(d)/2:])
		}
	}
	fill(0, data)
	return nodes
}

// BenchmarkForkJoinTree is the layer number behind the finegrain workload
// of bench/: one op is one task of a binary TaskGroup tree with 32-element
// leaves over 2^16 int32 (4095 tasks per tree).
func BenchmarkForkJoinTree(b *testing.B) {
	data := make([]int32, 1<<16)
	for i := range data {
		data[i] = int32(i)
	}
	want := int64(len(data)) * int64(len(data)-1) / 2
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			restoreGMP(b)
			s := New(Options{P: p})
			defer s.Shutdown()
			nodes := newBenchSumTree(data)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += len(nodes) {
				if err := s.Run(&nodes[0]); err != nil {
					b.Fatal(err)
				}
				if nodes[0].sum != want {
					b.Fatalf("sum = %d, want %d", nodes[0].sum, want)
				}
			}
		})
	}
}
