package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/freelist"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Options configures a Scheduler.
type Options struct {
	// P is the number of workers ("hardware threads"). Default: runtime.NumCPU().
	P int
	// Randomized enables Refinement 4: at level ℓ the steal/team partner is
	// chosen uniformly from the 2^ℓ ids of the sibling sub-block instead of
	// the single deterministic bit-flip partner. Default: deterministic.
	Randomized bool
	// DisableTeamReuse disbands a team after every task instead of keeping it
	// for subsequent tasks of the same size (ablation knob; the paper's
	// default keeps teams together, §3).
	DisableTeamReuse bool
	// Seed seeds the per-worker random generators used by Randomized mode.
	Seed uint64
	// MaxPendingPerGroup bounds the number of admitted-but-not-yet-started
	// external tasks of one Group. A blocking spawn over the bound parks
	// until workers drain the group's inject queue; TrySpawn returns
	// ErrSaturated instead. 0 means unbounded.
	MaxPendingPerGroup int
	// MaxInject bounds the total admitted-but-not-yet-started external tasks
	// across all sources — the scheduler-wide backpressure knob for a flood
	// of concurrent clients. 0 means unbounded.
	MaxInject int
	// Fault, when non-nil, is invoked at the scheduler's fault points (see
	// FaultPoint) with the executing worker's id, or −1 on client
	// goroutines — the fault-injection hook behind internal/chaos. The hook
	// may sleep or spin to model stalls, and may cancel groups, but must not
	// call back into the scheduler's spawn or wait paths. A nil hook costs
	// one predicted branch per fault point, none of them on the interior
	// spawn path.
	Fault func(p FaultPoint, worker int)
}

// FaultPoint identifies a scheduler code path at which the Options.Fault
// hook fires. The points cover the paths whose timing matters for graceful
// degradation — admission, inject take, the worker loop and the park — not
// the interior spawn/run hot path, which stays hook-free.
type FaultPoint uint8

const (
	// FaultWorkerLoop fires at the top of every worker loop iteration
	// (member polling, coordination, take, steal all follow it). Stalling
	// here models a descheduled or overloaded worker.
	FaultWorkerLoop FaultPoint = iota
	// FaultInjectTake fires when a worker observed pending injected work and
	// is about to drain the inject queues. Delaying here widens the window
	// between a group's cancellation and its nodes' revocation.
	FaultInjectTake
	// FaultAdmit fires at the start of every external admission call
	// (blocking and non-blocking), on the submitting goroutine (worker −1).
	FaultAdmit
	// FaultPark fires when an idle worker has announced itself parked and
	// has neither re-checked its sources nor blocked yet. Stalling here
	// widens the one window the wake-up protocol has to cover: publishers
	// find the worker in the parked set while it is still running.
	FaultPark
	// FaultTeamPark is FaultPark's twin for the waits inside a fixed team
	// (a barrier, a member awaiting its coordinator, a coordinator counting
	// down): announced on the wake slot, not yet re-checked.
	FaultTeamPark

	NumFaultPoints
)

// Scheduler is a work-stealing scheduler with deterministic team-building.
// Create with New, feed it through a Group (NewGroup, or Run for a one-shot
// group) and release its workers with Shutdown. The Group is the only way
// in and the only thing a client waits on.
type Scheduler struct {
	opts    Options
	topo    *topo.Topology
	workers []*worker

	// busy is the set of groups with tasks in flight: what Shutdown wakes
	// and Pending sums. A group enters at its 0→1 transition (admission)
	// and leaves at its drain — once per request, never per task (see
	// markBusy/markIdle).
	busyMu sync.Mutex
	busy   map[*Group]struct{}

	gen  atomic.Uint64
	done atomic.Bool
	wg   sync.WaitGroup

	// park summarizes the set of parked workers for the publishers and
	// wakes counts the wake-ups sent, by source (park.go).
	park  parkState
	wakes [numWakeSources]atomic.Int64

	// Execution tracer (P+1 rings: one per worker, one for the admission
	// path) and worker-state sampling profiler; see trace.go in this
	// package and internal/trace.
	xt       *trace.Tracer
	profiler *trace.Sampler

	// born anchors the repro_uptime_seconds counter (scrape-time rates:
	// two scrapes of any _total family divided by the uptime delta give a
	// rate without a range-vector-capable consumer).
	born time.Time

	// groupSeq hands every Group a scheduler-unique id, carried by trace
	// events so one group's admissions and completions link into an async
	// span in the Chrome export.
	groupSeq atomic.Uint64

	// admitWait is the scheduler-owned inject-to-take admission latency:
	// entries are stamped (trace.Now) at admission under admitMu and observed
	// into the taking worker's shard at take time, rendered as the
	// repro_admission_wait_seconds histogram.
	admitWait *stats.Histogram

	// pendingInject is the total of entries across all inject queues. It is
	// written under admitMu but read lock-free by takeInjected's empty fast
	// path, so an idle worker's poll costs one atomic load instead of a
	// global mutex acquisition.
	pendingInject atomic.Int64

	// Admission state (see admission.go): per-source inject queues drained
	// round-robin, with optional bounds exerting backpressure on spawners.
	admitMu      sync.Mutex
	admitCond    *sync.Cond // signaled when inject room frees up
	admitWaiters int        // spawners parked on admitCond
	ringHead     *injectQ   // next non-empty source to drain (circular list)
	ringLen      int        // non-empty sources in the ring (diagnostics)
	admit        stats.Admission

	// nodes is the shared level behind the workers' node stacks
	// (nodepool.go).
	nodes freelist.List[*node]

	// Metrics registry, built once on first use (see metrics.go).
	metricsOnce sync.Once
	metricsReg  *stats.Registry
}

// New starts a scheduler with p workers. With nothing to do the workers
// park — no polling, no timers — until a submission wakes one. GOMAXPROCS
// is raised to at least p (see topo.EnsureGOMAXPROCS): the paper's workers
// are preemptively scheduled OS threads, and the team-building protocol
// relies on that.
func New(opts Options) *Scheduler {
	s := build(opts)
	topo.EnsureGOMAXPROCS(s.topo.P)
	s.start()
	return s
}

// build constructs the scheduler without starting the worker goroutines.
// Tests drive the protocol single-threaded on a built-but-unstarted
// scheduler to pin down exact interleavings.
func build(opts Options) *Scheduler {
	if opts.P <= 0 {
		opts.P = runtime.NumCPU()
	}
	if opts.P > 1<<15 {
		panic(fmt.Sprintf("core: p = %d exceeds the 16-bit registration fields", opts.P))
	}
	s := &Scheduler{
		opts: opts,
		topo: topo.New(opts.P),
		born: time.Now(),
	}
	s.admitCond = sync.NewCond(&s.admitMu)
	s.busy = make(map[*Group]struct{})
	s.workers = make([]*worker, opts.P)
	for i := range s.workers {
		s.workers[i] = newWorker(s, i)
	}
	s.xt = trace.New(traceNames(opts.P), trace.DefaultRingEvents)
	s.admitWait = stats.NewHistogram(opts.P)
	s.profiler = trace.NewSampler(opts.P, func(i int) trace.State {
		return trace.State(s.workers[i].state.Load())
	})
	return s
}

func (s *Scheduler) start() {
	s.wg.Add(len(s.workers))
	for _, w := range s.workers {
		go w.loop()
	}
}

// P returns the number of workers.
func (s *Scheduler) P() int { return s.topo.P }

// MaxTeam returns the largest thread requirement a task may declare: the
// largest power of two ≤ P (Refinement 3 restricts teams to power-of-two
// blocks that fit inside the worker id space).
func (s *Scheduler) MaxTeam() int { return s.topo.MaxTeam }

// Run submits t as a one-shot group and waits for that group's quiescence:
// it returns when t and all its descendants have completed (nil), or
// ErrShutdown if the scheduler shut down first. For a single client this is
// the paper's run to completion; with several concurrent clients on one
// scheduler, each Run waits only for its own task tree. A nil t is the
// empty computation (see Group.Spawn): Run returns nil.
func (s *Scheduler) Run(t Task) error {
	return s.NewGroup().Run(t)
}

// Shutdown stops all workers. Outstanding tasks are abandoned; wait for
// the groups first for a clean drain. Spawners parked on admission
// backpressure are woken and their unadmitted tasks dropped; submissions
// after Shutdown has returned are guaranteed no-ops. Shutdown is idempotent
// and blocks until all worker goroutines have exited.
func (s *Scheduler) Shutdown() {
	if s.done.CompareAndSwap(false, true) {
		// Wake the idle parks and the team waits: each announces and then
		// re-checks done, so one that this loop misses does not sleep. A
		// barrier is left alone: every participant must arrive.
		for _, w := range s.workers {
			if s.claim(w, slotIdle) || s.claim(w, slotTeamWait) {
				w.slot.Signal()
			}
		}
		s.admitMu.Lock()
		s.admitCond.Broadcast()
		// Wake the Waits: a waiter re-checks done under its gate's lock, so
		// one that missed it is on the gate now. Under admitMu the busy set
		// holds every group with a task in flight (admission raises a count
		// from zero and marks the group busy in one admitMu section, and
		// refuses from now on), which is every group a Wait can park on.
		s.busyMu.Lock()
		for g := range s.busy {
			g.qz.release()
		}
		s.busyMu.Unlock()
		s.admitMu.Unlock()
	}
	s.profiler.Stop()
	s.wg.Wait()
}

// Stats returns the aggregated counters of all workers.
func (s *Scheduler) Stats() stats.Snapshot {
	var total stats.Snapshot
	for _, w := range s.workers {
		total.Add(w.st.Snapshot())
	}
	return total
}

// WorkerStats returns a per-worker snapshot of the scheduler counters.
func (s *Scheduler) WorkerStats() []stats.Snapshot {
	out := make([]stats.Snapshot, len(s.workers))
	for i, w := range s.workers {
		out[i] = w.st.Snapshot()
	}
	return out
}

// Admission returns a snapshot of the admission-control counters of the
// external submission path (see admission.go).
func (s *Scheduler) Admission() stats.AdmissionSnapshot { return s.admit.Snapshot() }

// AdmissionWait returns a snapshot of the scheduler-owned inject-to-take
// admission latency histogram: the time every admitted external task spent
// in its inject queue before a worker took it (also rendered by Metrics as
// repro_admission_wait_seconds).
func (s *Scheduler) AdmissionWait() stats.HistSnapshot { return s.admitWait.Snapshot() }

// Uptime returns the time since the scheduler was constructed, the anchor
// of the repro_uptime_seconds metric.
func (s *Scheduler) Uptime() time.Duration { return time.Since(s.born) }

// markBusy puts g into the busy set after an admission raised its in-flight
// count from zero. Only admission does that (an interior spawn runs inside a
// task that already holds a unit of its group), so callers hold admitMu, and
// they call it before the admitted entries become visible to any worker: a
// published, uncompleted task always finds its group in the set.
func (s *Scheduler) markBusy(g *Group) {
	s.busyMu.Lock()
	s.busy[g] = struct{}{}
	s.busyMu.Unlock()
}

// markIdle removes g after a completion dropped its in-flight count to
// zero. The count is re-read under busyMu: if an admission raised it again
// in between (group reuse), the group stays and the next drain retires it —
// membership follows the count's level, not the order in which racing
// transitions reach the lock.
func (s *Scheduler) markIdle(g *Group) {
	s.busyMu.Lock()
	if g.inflight.Load() == 0 {
		delete(s.busy, g)
	}
	s.busyMu.Unlock()
}

// Pending returns the current number of in-flight tasks: the sum of
// Group.Pending over the busy groups, so children joined through a
// TaskGroup are not counted (racy; for tests and diagnostics — exact when
// nothing is running).
func (s *Scheduler) Pending() int64 {
	s.busyMu.Lock()
	defer s.busyMu.Unlock()
	var sum int64
	for g := range s.busy {
		sum += g.inflight.Load()
	}
	return sum
}

// validateReq panics on an invalid thread requirement — before any task is
// accounted, so a panicking spawn never leaks an inflight count.
func (s *Scheduler) validateReq(r int) {
	if r < 1 {
		panic(fmt.Sprintf("core: task thread requirement %d < 1", r))
	}
	if r > s.topo.MaxTeam {
		panic(fmt.Sprintf("core: task requires %d threads; scheduler supports at most %d (p = %d)",
			r, s.topo.MaxTeam, s.topo.P))
	}
}

// taskDone reports one completion on g's in-flight count — a detached or
// admitted task that finished, or an admitted entry that was revoked. A
// task's detached children are accounted before its own completion is
// reported and its joined children have completed before it returns, so a
// count of zero means the whole tree is done: the zero transition wakes the
// group's waiters, then retires the group from the busy set. The worker's
// stats are flushed first, so a released Wait reads them exact.
//
// If a waiter was parked, the worker then yields: the goroutine it just made
// runnable sits in this P's runnext slot and is the one thing known to be
// waiting for this result, while the worker's own next step is a search that
// may well end in a stolen task of another client's — tens of microseconds
// during which, with as many clients as CPUs, nobody else would pick the
// waiter up. The yield costs one reschedule per request, not per task.
//
// Once the count is zero the group's client may reset and reuse it, so
// nothing after the decrement reads the group's era: the trace id is read
// before it, and release and markIdle are safe on a reused group (README.md,
// Why a drained group can be reused at once).
func (w *worker) taskDone(g *Group) {
	w.flushStats()
	gid := g.gid
	if g.inflight.Add(-1) != 0 {
		return
	}
	s := w.sched
	if xt := s.xt; xt.Enabled() {
		xt.Record(w.id, trace.EvGroupDone, w.id, uint32(gid), 0)
	}
	woke := g.qz.release()
	s.markIdle(g)
	if woke {
		runtime.Gosched()
	}
}

// nextGen returns a scheduler-unique generation number for team executions.
func (s *Scheduler) nextGen() uint64 { return s.gen.Add(1) }
