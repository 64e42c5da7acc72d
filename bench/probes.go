package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/deque"
	"repro/internal/dist"
	"repro/internal/par"
	"repro/internal/qsort"
	"repro/internal/stats"
	"repro/internal/teamsync"
)

// The probes time each layer's public calls in isolation, outside any
// workload: they are the per-layer numbers a change to one layer should move
// first, before an end-to-end metric follows (README.md has the table of
// which moves which). Every probe repeats probeReps times and reports the
// median.

// noopTask is a reusable single-threaded task, so a probe exercises the
// scheduler's own per-task cost and not task construction.
type noopTask struct{}

func (noopTask) Threads() int  { return 1 }
func (noopTask) Run(*core.Ctx) {}

// countdown decrements a shared counter; one value is spawned repeatedly.
type countdown struct{ left atomic.Int64 }

func (t *countdown) Threads() int  { return 1 }
func (t *countdown) Run(*core.Ctx) { t.left.Add(-1) }

// stampTask records when its body started, for the inject/wake split.
type stampTask struct{ start int64 }

func (t *stampTask) Threads() int  { return 1 }
func (t *stampTask) Run(*core.Ctx) { t.start = now() }

// since returns the seconds fn took.
func since(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// mallocsDuring returns the heap allocations of the whole process while fn
// ran; the probes call it with the scheduler otherwise idle.
func mallocsDuring(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// onWorker runs fn inside a task of s and waits for it, giving a probe an
// interior (Ctx-bearing) vantage point.
func onWorker(s *repro.Scheduler, fn func(ctx *core.Ctx)) {
	if err := s.Run(core.Solo(fn)); err != nil {
		panic(fmt.Sprintf("bench: probe task refused: %v", err))
	}
}

// runProbes runs every isolated layer probe once (each with its own
// repetitions) and returns the probe metrics. It fails on a wrong output.
func runProbes(sz sizing, seed uint64) (m metrics, err error) {
	p := runtime.NumCPU()
	rt := repro.NewRuntime[int32](repro.Options{P: p})
	defer rt.Close()
	s := rt.Scheduler()
	np := s.MaxTeam()

	rep := func(name, unit string, fn func() float64) float64 {
		vals := make([]float64, probeReps)
		for i := range vals {
			vals[i] = fn()
		}
		v := median(vals)
		m.set(name, v, unit, probeReps)
		return v
	}
	// it scales a probe's iteration count, so the smoke test runs the same
	// code in a fraction of the time.
	it := func(n int) int { return max(1, int(float64(n)*sz.probeScale)) }
	fail := func(format string, a ...any) {
		if err == nil {
			err = fmt.Errorf("probe: "+format, a...)
		}
	}

	// ---- deque: owner push/pop, thief pop, batched steal.
	x := 42
	rep("deque.push_pop_ns", "ns", func() float64 {
		n := it(1 << 19)
		d := deque.New[int]()
		return 1e9 * since(func() {
			for i := 0; i < n; i++ {
				d.PushBottom(&x)
				d.PopBottom()
			}
		}) / float64(n)
	})
	rep("deque.pop_top_ns", "ns", func() float64 {
		const batch = 1024
		batches := it(256)
		d := deque.New[int]()
		var sec float64
		for b := 0; b < batches; b++ {
			for i := 0; i < batch; i++ {
				d.PushBottom(&x)
			}
			sec += since(func() {
				for i := 0; i < batch; i++ {
					d.PopTop()
				}
			})
		}
		return 1e9 * sec / float64(batch*batches)
	})
	rep("deque.steal_batch_ns_per_task", "ns", func() float64 {
		const batch, grab = 1024, 64
		batches := it(256)
		victim, thief := deque.New[int](), deque.New[int]()
		var sec float64
		for b := 0; b < batches; b++ {
			for i := 0; i < batch; i++ {
				victim.PushBottom(&x)
			}
			sec += since(func() {
				for !victim.Empty() {
					deque.Steal(victim, thief, grab)
				}
			})
			for thief.PopBottom() != nil {
			}
		}
		return 1e9 * sec / float64(batch*batches)
	})

	// ---- core, interior path: spawn+join latency, fan-out throughput, the
	// steal path under one producer.
	rep("core.spawn_join_ns", "ns", func() (ns float64) {
		n := it(100000)
		onWorker(s, func(ctx *core.Ctx) {
			var tg core.TaskGroup
			ns = 1e9 * since(func() {
				for i := 0; i < n; i++ {
					tg.Spawn(ctx, noopTask{})
					tg.Wait(ctx)
				}
			}) / float64(n)
		})
		return ns
	})
	const wave = 256
	waves := it(400)
	rep("core.fanout_ns_per_task", "ns", func() (ns float64) {
		onWorker(s, func(ctx *core.Ctx) {
			var tg core.TaskGroup
			ns = 1e9 * since(func() {
				for w := 0; w < waves; w++ {
					for i := 0; i < wave; i++ {
						tg.Spawn(ctx, noopTask{})
					}
					tg.Wait(ctx)
				}
			}) / float64(wave*waves)
		})
		return ns
	})
	rep("core.steal_imbalance_ns_per_task", "ns", func() (ns float64) {
		onWorker(s, func(ctx *core.Ctx) {
			ct := &countdown{}
			ns = 1e9 * since(func() {
				for w := 0; w < waves; w++ {
					ct.left.Store(wave)
					for i := 0; i < wave; i++ {
						ctx.Spawn(ct)
					}
					// The producer only yields: thieves drain every task.
					for ct.left.Load() > 0 {
						runtime.Gosched()
					}
				}
			}) / float64(wave*waves)
		})
		return ns
	})

	// ---- core, teams: forming a team for one task after idle (a scheduler
	// that disbands after every task forms one per Run), and the cost per
	// task when a team is kept for back-to-back tasks of its size.
	fresh := repro.NewScheduler(repro.Options{P: p, DisableTeamReuse: true})
	teamForm := func(r int) func() float64 {
		return func() float64 {
			n := it(200)
			return 1e6 * since(func() {
				for i := 0; i < n; i++ {
					fresh.Run(core.Func(r, func(*core.Ctx) {}))
				}
			}) / float64(n)
		}
	}
	teamForm(np)() // unmeasured: the first runs on a new scheduler find its workers deep in backoff
	rep("core.team_form_us.r2", "us", teamForm(min(2, np)))
	rep("core.team_form_us.rP", "us", teamForm(np))
	fresh.Shutdown()
	rep("core.team_reuse_us.rP", "us", func() float64 {
		const n = 64
		team := core.Func(np, func(*core.Ctx) {})
		return 1e6 * since(func() {
			onWorker(s, func(ctx *core.Ctx) {
				for i := 0; i < n; i++ {
					ctx.Spawn(team)
				}
			})
		}) / n
	})

	// ---- core, request path: Group.Spawn → root body starts → Wait returns,
	// on a fresh group per cycle as the Runtime does; and what a cycle
	// allocates.
	var injectUS, wakeUS []float64
	for r := 0; r < probeReps; r++ {
		n := it(2000)
		inject, wake := make([]int64, n), make([]int64, n)
		t := &stampTask{}
		for i := 0; i < n; i++ {
			g := s.NewGroup()
			t0 := now()
			if e := g.Run(t); e != nil {
				fail("group cycle: %v", e)
			}
			t1 := now()
			inject[i], wake[i] = t.start-t0, t1-t.start
		}
		slices.Sort(inject)
		slices.Sort(wake)
		injectUS, wakeUS = append(injectUS, medianNS(inject)/1e3), append(wakeUS, medianNS(wake)/1e3)
	}
	m.set("core.inject_start_us", median(injectUS), "us", probeReps)
	m.set("core.wait_wake_us", median(wakeUS), "us", probeReps)
	rep("core.group_cycle_allocs", "count", func() float64 {
		n := it(2000)
		return mallocsDuring(func() {
			for i := 0; i < n; i++ {
				s.NewGroup().Run(noopTask{})
			}
		}) / float64(n)
	})

	// ---- teamsync: one barrier episode across P members.
	rep("teamsync.barrier_ns.nP", "ns", func() float64 {
		n := it(50000)
		bar := teamsync.NewBarrier(p)
		var wg sync.WaitGroup
		return 1e9 * since(func() {
			for t := 0; t < p; t++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < n; i++ {
						bar.Wait()
					}
				}()
			}
			wg.Wait()
		}) / float64(n)
	})

	// ---- par: one full-width team task per collective.
	n := sz.probeSortN
	in := dist.Generate(dist.Random, n, seed)
	buf := make([]int32, n)
	melem := func(elems int, sec float64) float64 { return float64(elems) / sec / 1e6 }
	const parIters = 3
	var sum int64
	rep("par.reduce_melem_s", "Melem/s", func() float64 {
		return melem(parIters*n, since(func() {
			for i := 0; i < parIters; i++ {
				s.Run(par.Reduce(np, n, 0, func(i int) int64 { return int64(in[i]) },
					func(a, b int64) int64 { return a + b }, &sum))
			}
		}))
	})
	rep("par.scan_melem_s", "Melem/s", func() float64 {
		var sec float64
		for i := 0; i < parIters; i++ {
			copy(buf, in)
			sec += since(func() {
				s.Run(par.ScanInclusive(np, buf, 0, func(a, b int32) int32 { return a + b }, nil))
			})
		}
		return melem(parIters*n, sec)
	})
	var kept int
	rep("par.pack_melem_s", "Melem/s", func() float64 {
		return melem(parIters*n, since(func() {
			for i := 0; i < parIters; i++ {
				s.Run(par.Pack(np, in, buf, func(_ int, v int32) bool { return v&1 == 0 }, &kept))
			}
		}))
	})
	hist := make([]int, qNB)
	rep("par.hist_melem_s", "Melem/s", func() float64 {
		return melem(parIters*n, since(func() {
			for i := 0; i < parIters; i++ {
				s.Run(par.Histogram(np, n, qNB, func(i int) int { return qKey(in[i]) }, hist))
			}
		}))
	})
	rep("par.claimer_blocks_per_us", "1/us", func() float64 {
		const nb = 1 << 16
		c := par.NewClaimer(nb)
		var wg sync.WaitGroup
		return nb / (1e6 * since(func() {
			for t := 0; t < p; t++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						if _, ok := c.Left(); !ok {
							return
						}
						if _, ok := c.Right(); !ok {
							return
						}
					}
				}()
			}
			wg.Wait()
		}))
	})

	// ---- the sorts, single caller, n Random elements; the paper's two
	// ratios each with its base printed beside it.
	sortProbe := func(name string, sort func([]int32)) float64 {
		return rep(name, "Melem/s", func() float64 {
			copy(buf, in)
			sec := since(func() { sort(buf) })
			if !qsort.IsSorted(buf) {
				fail("%s left its input unsorted", name)
			}
			return melem(n, sec)
		})
	}
	seq := sortProbe("qsort.seq_melem_s", repro.SortSequential[int32])
	fork := sortProbe("qsort.fork_melem_s", rt.SortForkJoin)
	mixed := sortProbe("qsort.mixed_melem_s", func(d []int32) { rt.SortMixedMode(d, repro.MMOptions{}) })
	m.set("qsort.speedup_mixed_vs_seq", ratio(mixed, seq), "ratio", probeReps)
	m.set("qsort.speedup_mixed_vs_fork", ratio(mixed, fork), "ratio", probeReps)
	sortProbe("ssort.melem_s", func(d []int32) { rt.SortSamplesort(d, repro.SSOptions{}) })
	sortProbe("msort.melem_s", func(d []int32) { rt.SortMergeMixedMode(d, repro.MSOptions{}) })

	// ---- query: every operator through the Runtime on one Random cell,
	// checked against the oracle.
	cell := newQCell(in[:sz.probeQueryN])
	qc := &queryClient{
		rt:      rt,
		cells:   []qCell{cell},
		dst:     make([]int32, sz.probeQueryN),
		joinOut: make([]repro.JoinRun[int32], sz.probeQueryN),
		plan:    newBenchPlan(rt, sz.probeQueryN),
	}
	const qIters = 4
	for op := uint8(0); op < numQOps; op++ {
		rq := request{Op: op}
		name := "query." + qOpNames[op] + "_melem_s"
		rep(name, "Melem/s", func() float64 {
			sec := since(func() {
				for i := 0; i < qIters; i++ {
					qc.call(rq, nil)
				}
			})
			if qc.verify(rq, nil) != outOK {
				fail("%s: result differs from the oracle", name)
			}
			return melem(qIters*sz.probeQueryN, sec)
		})
	}
	rep("query.plan_warm_allocs", "count", func() float64 {
		const runs = 50
		return mallocsDuring(func() {
			for i := 0; i < runs; i++ {
				rt.RunPlan(qc.plan, cell.in)
			}
		}) / runs
	})

	// ---- runtime: the smallest request that reaches the scheduler (two
	// elements; one never leaves the caller), plain, under a live deadline,
	// and batched.
	tinyReqs := it(5000)
	tiny := []int32{2, 1}
	var emptyAllocs float64
	rep("runtime.empty_req_us", "us", func() float64 {
		var sec float64
		emptyAllocs = mallocsDuring(func() {
			sec = since(func() {
				for i := 0; i < tinyReqs; i++ {
					tiny[0], tiny[1] = 2, 1
					rt.SortForkJoin(tiny)
				}
			})
		}) / float64(tinyReqs)
		return 1e6 * sec / float64(tinyReqs)
	})
	m.set("runtime.empty_req_allocs", emptyAllocs, "count", 1)
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	one := []repro.SortRequest[int32]{{Data: tiny, Algo: repro.AlgoForkJoin}}
	rep("runtime.ctx_req_us", "us", func() float64 {
		return 1e6 * since(func() {
			for i := 0; i < tinyReqs; i++ {
				tiny[0], tiny[1] = 2, 1
				if e := rt.SortManyCtx(ctx, one, repro.BatchOptions{}); e != nil {
					fail("SortManyCtx: %v", e)
				}
			}
		}) / float64(tinyReqs)
	})
	const batch = 8
	pairs := make([]int32, 2*batch)
	many := make([]repro.SortRequest[int32], batch)
	for i := range many {
		many[i] = repro.SortRequest[int32]{Data: pairs[2*i : 2*i+2], Algo: repro.AlgoForkJoin}
	}
	rep("runtime.batch_us_per_item", "us", func() float64 {
		n := max(1, tinyReqs/batch)
		return 1e6 * since(func() {
			for i := 0; i < n; i++ {
				for j := range pairs {
					pairs[j] = int32(len(pairs) - j)
				}
				rt.SortMany(many, repro.BatchOptions{})
			}
		}) / float64(n*batch)
	})

	// ---- stats, dist.
	h := stats.NewHistogram(1)
	rep("stats.observe_ns", "ns", func() float64 {
		n := it(1 << 20)
		return 1e9 * since(func() {
			for i := 0; i < n; i++ {
				h.Observe(0, float64(i&1023)*1e-6)
			}
		}) / float64(n)
	})
	rep("dist.generate_melem_s", "Melem/s", func() float64 {
		return melem(n, since(func() { in = dist.Generate(dist.Random, n, seed) }))
	})
	return m, err
}
