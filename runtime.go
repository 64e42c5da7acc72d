package repro

import (
	"context"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/msort"
	"repro/internal/qsort"
	"repro/internal/query"
	"repro/internal/ssort"
	"repro/internal/stats"
)

// Runtime is a long-lived sorting service over one shared Scheduler: many
// goroutines may call the Sort* methods concurrently, and each call runs as
// its own quiescence group, so independent requests neither wait on each
// other's tasks nor require a scheduler per client. This is the paper's
// scheduler in its intended role as a general runtime — each client
// computation is a task-parallel job whose interior may contain
// data-parallel team tasks, and the scheduler multiplexes all of them over
// one set of p workers.
//
// The element type is fixed per Runtime (it parameterizes the Sort*
// methods); create one Runtime per element type on the same Scheduler via
// NewRuntimeOn if a process needs several.
type Runtime[T Ordered] struct {
	s      *Scheduler
	owned  bool // whether Close shuts the scheduler down
	m      runtimeMetrics
	groups sync.Pool         // of drained *core.Group: one per request in flight
	ops    sync.Pool         // of unbound *query.Op[T]: one per analytics request in flight
	forks  qsort.ForkPool[T] // every sort's tasks and scratch: quicksorts, samplesort steps and buckets, fallbacks
}

// family indexes the request families of runtimeMetrics: the four sort
// algorithms (a SortAlgo is its own family) followed by the six analytics
// operators of analytics.go.
type family int

const numSortAlgos = 4 // SortAlgo values

const (
	famFilter family = numSortAlgos + iota
	famGroupBy
	famAggregate
	famTopK
	famJoin
	famPlan
	numFamilies
)

// familyNames labels each family in the metrics registry; the sort names
// match the harness column names used across the benchmark tooling.
var familyNames = [numFamilies]string{"mmpar", "fork", "ssort", "msort",
	"filter", "groupby", "aggregate", "topk", "join", "plan"}

// familyKinds are the two kinds of request the exposition tells apart, each
// a contiguous range of families rendered as three metric families.
var familyKinds = [...]struct {
	lo, hi               family
	label                string // series label of the latency and total families
	latency, latencyHelp string
	total, totalHelp     string
	pending, pendingHelp string
}{
	{0, numSortAlgos, "algo",
		"repro_sort_latency_seconds", "End-to-end latency of Runtime sort requests.",
		"repro_sorts_total", "Completed Runtime sort requests.",
		"repro_group_pending_sorts", "Sort requests currently in flight, by the algorithm their quiescence group runs."},
	{numSortAlgos, numFamilies, "op",
		"repro_query_latency_seconds", "End-to-end latency of Runtime analytics requests.",
		"repro_queries_total", "Completed Runtime analytics requests.",
		"repro_group_pending_queries", "Analytics requests currently in flight, by the operator their quiescence group runs."},
}

// load is how many requests of each family one call carries: a single one
// for the typed methods, the per-algorithm counts of the batch for SortMany.
type load [numFamilies]uint32

// runtimeMetrics instruments a Runtime's requests: one end-to-end latency
// histogram and one in-flight gauge per family. Requests only touch a
// sharded histogram (shard picked by a round-robin ticket — one shared
// atomic add per request, not per task; the per-task hot path inside the
// scheduler stays untouched) and the family's in-flight counter.
type runtimeMetrics struct {
	initOnce sync.Once
	regOnce  sync.Once
	reg      *stats.Registry
	hist     [numFamilies]*stats.Histogram
	inflight [numFamilies]atomic.Int64
	rr       atomic.Uint32 // round-robin histogram shard ticket
}

// init creates the histograms (shards sized to the scheduler). Called from
// every instrumentation site, so a Runtime built directly with a struct
// literal needs no constructor hook.
func (m *runtimeMetrics) init(p int) {
	m.initOnce.Do(func() {
		shards := p
		if shards > 16 {
			shards = 16
		}
		for f := range m.hist {
			m.hist[f] = stats.NewHistogram(shards)
		}
	})
}

// begin records the start of the requests in l, returning the histogram
// shard and start time for end.
func (m *runtimeMetrics) begin(l *load, p int) (int, time.Time) {
	m.init(p)
	for f, n := range l {
		if n != 0 {
			m.inflight[f].Add(int64(n))
		}
	}
	return int(m.rr.Add(1)), time.Now()
}

// end records the completion of the requests started by begin. Every
// request of a batch completes (as observed by the caller) when the whole
// group drains, so the call's duration is each one's end-to-end latency.
func (m *runtimeMetrics) end(l *load, shard int, t0 time.Time) {
	elapsed := time.Since(t0).Seconds()
	for f, n := range l {
		if n != 0 {
			m.hist[f].ObserveN(shard, elapsed, uint64(n))
			m.inflight[f].Add(-int64(n))
		}
	}
}

// request is the one way a client computation enters the scheduler: body
// spawns the request's root tasks into a quiescence group of its own, drawn
// from the Runtime's pool of drained groups and Reset (a fresh era: live,
// with a new trace id), bound to ctx; request waits for the group to drain,
// accounting the call in the families of l. A failed spawn (cancellation
// mid-admission, or shutdown) leaves its admitted prefix in flight; WaitErr
// still waits for the true drain and reports how the group ended, and body's
// error wins only when the drain itself reports nothing (e.g. the prefix
// drained before a post-admission shutdown was observed). Abandoned requests
// still observe their (truncated) latency. A context that can never be
// canceled costs nothing: BindContext is then a no-op and starts no watcher
// goroutine; otherwise stop returns only once the watcher has exited, so no
// late cancel reaches the group's next request.
// held lists what body borrowed: its merge sorts' scratch buffers, an
// analytics request's Op. They and the group go back to their pools after
// any drain, a canceled group's included (WaitErr waits out its started
// tasks), but not after a shutdown that let WaitErr return over tasks in
// flight: those are left to the collector.
func (r *Runtime[T]) request(ctx context.Context, l load, held *loans[T], body func(g *core.Group) error) error {
	shard, t0 := r.m.begin(&l, r.s.P())
	g, _ := r.groups.Get().(*core.Group)
	if g == nil {
		g = r.s.NewGroup()
	} else {
		g.Reset()
	}
	stop := g.BindContext(ctx)
	berr := body(g)
	err := g.WaitErr()
	stop()
	if g.Pending() == 0 {
		for _, b := range held.bufs {
			r.forks.Return(b)
		}
		if held.op != nil {
			held.op.Unbind()
			r.ops.Put(held.op)
		}
		r.groups.Put(g)
	}
	if err == nil {
		err = berr
	}
	r.m.end(&l, shard, t0)
	return err
}

// loans lists what one request has borrowed from the Runtime's pools.
type loans[T Ordered] struct {
	bufs [][]T        // scratch of the request's merge sorts
	op   *query.Op[T] // the task of an analytics request
}

// Metrics returns the Runtime's metrics registry: the underlying
// scheduler's full metric surface (worker counters, admission, free lists)
// plus the Runtime's own per-algorithm families —
// repro_sort_latency_seconds{algo=...} end-to-end latency histograms,
// repro_sorts_total{algo=...} request counters, and
// repro_group_pending_sorts{group=...} in-flight gauges (one quiescence
// group per request, labeled by the algorithm the group ran) — and the
// analytics families mirroring them per query operator:
// repro_query_latency_seconds{op=...}, repro_queries_total{op=...}, and
// repro_group_pending_queries{group=...} (see analytics.go).
//
// The registry is built once per Runtime and reads live state at scrape
// time; expose it with ServeMetrics or any HTTP mux. Runtimes sharing one
// scheduler each build their own registry, so their per-algorithm series
// stay separate while the scheduler families repeat.
func (r *Runtime[T]) Metrics() *Metrics {
	r.m.init(r.s.P())
	r.m.regOnce.Do(func() {
		reg := stats.NewRegistry()
		r.s.RegisterMetrics(reg)
		for _, k := range familyKinds {
			for f := k.lo; f < k.hi; f++ {
				hist, inflight := r.m.hist[f], &r.m.inflight[f]
				lbl := []stats.Label{{Name: k.label, Value: familyNames[f]}}
				reg.Histogram(k.latency, k.latencyHelp, lbl, hist)
				reg.CounterFunc(k.total, k.totalHelp, lbl,
					func() float64 { return float64(hist.Snapshot().Count) })
				reg.GaugeFunc(k.pending, k.pendingHelp,
					[]stats.Label{{Name: "group", Value: familyNames[f]}},
					func() float64 { return float64(inflight.Load()) })
			}
		}
		r.m.reg = reg
	})
	return r.m.reg
}

// NewRuntime starts a scheduler with opts.P workers (default NumCPU) and
// returns a Runtime serving concurrent sorts on it. Release the workers
// with Close.
func NewRuntime[T Ordered](opts Options) *Runtime[T] {
	return &Runtime[T]{s: core.New(opts), owned: true}
}

// NewRuntimeOn returns a Runtime serving concurrent sorts on an existing
// scheduler (which the caller keeps owning: Close on such a Runtime is a
// no-op, shut the scheduler down yourself).
func NewRuntimeOn[T Ordered](s *Scheduler) *Runtime[T] {
	return &Runtime[T]{s: s}
}

// Scheduler returns the underlying shared scheduler.
func (r *Runtime[T]) Scheduler() *Scheduler { return r.s }

// P returns the worker count of the underlying scheduler.
func (r *Runtime[T]) P() int { return r.s.P() }

// Close shuts the underlying scheduler down if the Runtime owns it
// (created by NewRuntime). Outstanding sorts are abandoned; finish or wait
// for them first. A request made after Close returns at once with its work
// not done — data unsorted, results zero; SortManyCtx reports ErrShutdown.
func (r *Runtime[T]) Close() {
	if r.owned {
		r.s.Shutdown()
	}
}

// StartTrace enables execution tracing on the underlying scheduler: every
// worker records task, steal, injection, team-protocol, and park events into
// its own fixed-size ring (see internal/trace). Safe to toggle on a live
// Runtime; with tracing off the instrumentation costs one predicted branch
// per event site.
func (r *Runtime[T]) StartTrace() { r.s.StartTrace() }

// StopTrace disables execution tracing; recorded events stay readable.
func (r *Runtime[T]) StopTrace() { r.s.StopTrace() }

// WriteTrace writes the recorded execution trace as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func (r *Runtime[T]) WriteTrace(w io.Writer) error { return r.s.WriteChromeTrace(w) }

// TraceText renders the recorded execution trace as a compact text dump.
func (r *Runtime[T]) TraceText() string { return r.s.TraceDump() }

// StartProfiler launches the worker-state sampling profiler at hz samples
// per second (0 selects the default rate). Observations accumulate in the
// repro_worker_state_samples_total{state=...} metric families.
func (r *Runtime[T]) StartProfiler(hz float64) { r.s.StartProfiler(hz) }

// StopProfiler halts the sampling profiler.
func (r *Runtime[T]) StopProfiler() { r.s.StopProfiler() }

// SortMixedMode sorts data with the paper's mixed-mode parallel Quicksort
// (Algorithm 11) as an independent group on the shared scheduler. It blocks
// until data is sorted; concurrent calls proceed independently.
func (r *Runtime[T]) SortMixedMode(data []T, opt MMOptions) {
	r.sortOne(SortRequest[T]{Data: data, Algo: AlgoMixedMode}, BatchOptions{MM: opt})
}

// SortForkJoin sorts data with the task-parallel Quicksort (Algorithm 10)
// as an independent group on the shared scheduler.
func (r *Runtime[T]) SortForkJoin(data []T) {
	r.sortOne(SortRequest[T]{Data: data, Algo: AlgoForkJoin}, BatchOptions{})
}

// SortSamplesort sorts data with the mixed-mode parallel samplesort as an
// independent group on the shared scheduler. Each team step scatters through
// scratch from the Runtime's pool, held from its sample to its copy-back
// only, so P workers hold at most P/2 buffers at once whatever the number of
// requests in flight; once warm a call allocates no buffer and no step state.
func (r *Runtime[T]) SortSamplesort(data []T, opt SSOptions) {
	r.sortOne(SortRequest[T]{Data: data, Algo: AlgoSamplesort}, BatchOptions{SS: opt})
}

// SortMergeMixedMode sorts data with the mixed-mode parallel merge sort as
// an independent group on the shared scheduler, merging between data and a
// scratch buffer of len(data) from the same pool as SortSamplesort's, held
// until the request's group has drained.
func (r *Runtime[T]) SortMergeMixedMode(data []T, opt MSOptions) {
	r.sortOne(SortRequest[T]{Data: data, Algo: AlgoMergeMixedMode}, BatchOptions{MS: opt})
}

// sortOne runs one sort as its own request, like single with no error result.
// The root is built inside it: drawing (on a cold pool, allocating) its task
// and a merge sort's scratch is latency the caller sees.
func (r *Runtime[T]) sortOne(rq SortRequest[T], opt BatchOptions) {
	var l load
	l[rq.Algo.family()] = 1
	var held loans[T]
	_ = r.request(context.Background(), l, &held, func(g *core.Group) error { return g.Spawn(r.root(rq, opt, &held)) })
}

// root maps the public SortAlgo vocabulary to the root task of one sort
// request (nil when there is nothing to sort); an unknown SortAlgo sorts
// like the zero value. The merge sort borrows its scratch for the request
// (held); the samplesort's team steps borrow theirs as they run.
func (r *Runtime[T]) root(rq SortRequest[T], opt BatchOptions, held *loans[T]) core.Task {
	switch rq.Algo {
	case AlgoForkJoin:
		return qsort.ForkJoinRoot(&r.forks, rq.Data, opt.Cutoff)
	case AlgoSamplesort:
		return ssort.Root(&r.forks, r.s.MaxTeam(), rq.Data, opt.SS)
	case AlgoMergeMixedMode:
		b := r.forks.Borrow(len(rq.Data))
		held.bufs = append(held.bufs, b)
		return msort.Root(rq.Data, b, opt.MS)
	default:
		return qsort.MixedModeRoot(&r.forks, r.s.MaxTeam(), rq.Data, opt.MM)
	}
}

// family is the family a sort request is accounted in: its algorithm, an
// unknown one counting as the zero value it sorts like.
func (a SortAlgo) family() family {
	if a < 0 || a >= numSortAlgos {
		a = AlgoMixedMode
	}
	return family(a)
}

// SortAlgo selects the algorithm of one SortMany request. The zero value is
// the paper's mixed-mode quicksort.
type SortAlgo int

const (
	// AlgoMixedMode is the mixed-mode parallel quicksort (Algorithm 11).
	AlgoMixedMode SortAlgo = iota
	// AlgoForkJoin is the task-parallel quicksort (Algorithm 10).
	AlgoForkJoin
	// AlgoSamplesort is the mixed-mode parallel samplesort.
	AlgoSamplesort
	// AlgoMergeMixedMode is the mixed-mode parallel merge sort.
	AlgoMergeMixedMode
)

// SortRequest is one sort of a SortMany batch: the slice to sort and the
// algorithm to sort it with.
type SortRequest[T Ordered] struct {
	Data []T
	Algo SortAlgo
}

// BatchOptions carries the per-algorithm tunables of a SortMany batch; the
// zero value selects every algorithm's defaults.
type BatchOptions struct {
	MM MMOptions
	SS SSOptions
	MS MSOptions
	// Cutoff is the sequential cutoff of AlgoForkJoin requests (0 selects
	// the default; the mixed-mode algorithms carry theirs in MM/SS/MS).
	Cutoff int
}

// SortMany sorts every request of the batch concurrently on the shared
// scheduler and blocks until all of them are sorted. The whole batch runs
// as ONE quiescence group whose root tasks are submitted with a single
// Group.SpawnBatch — one admission-lock acquisition however many requests
// the batch carries — so a client aggregating many small sort requests
// amortizes the injection cost that per-call Sort* methods pay per request.
// Under admission bounds (Options.MaxPendingPerGroup/MaxInject) the batch
// is throttled like any other group and may block until room frees up.
// Concurrent SortMany calls (and concurrent Sort* calls) proceed
// independently.
func (r *Runtime[T]) SortMany(reqs []SortRequest[T], opt BatchOptions) {
	// Like the Sort* methods (see single), SortMany has no error result.
	_ = r.SortManyCtx(context.Background(), reqs, opt)
}

// SortManyCtx is SortMany under a context: the whole batch runs as one
// cancelable group bound to ctx. If ctx is canceled (or its deadline
// passes) mid-batch, root tasks that have not started are revoked at take
// time without running, tasks already running abandon their remaining
// recursion cooperatively, and SortManyCtx returns ErrCanceled or
// ErrDeadlineExceeded once the group has truly drained. On error the
// request slices are left partially sorted — a canceled batch's data must
// be treated as garbage by the caller. A nil error means every request was
// fully sorted. Abandoned batches still observe their (truncated) latency
// in the runtime metrics. A batch with nothing to sort still honors an
// already-dead context, with the same typed errors. Each AlgoMergeMixedMode
// request holds pooled scratch until the group has drained; an
// AlgoSamplesort request's team steps hold theirs only while they run.
func (r *Runtime[T]) SortManyCtx(ctx context.Context, reqs []SortRequest[T], opt BatchOptions) error {
	ts := make([]core.Task, 0, len(reqs))
	var l load
	var held loans[T]
	for _, rq := range reqs {
		if t := r.root(rq, opt, &held); t != nil { // nil: nothing to sort (len < 2)
			ts = append(ts, t)
			l[rq.Algo.family()]++
		}
	}
	return r.request(ctx, l, &held, func(g *core.Group) error { return g.SpawnBatch(ts) })
}
