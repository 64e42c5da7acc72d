// Package classic implements the randomized work-stealing scheduler the
// paper's team-builder is measured against: per-worker lock-free deques,
// uniformly random victim selection, single-threaded tasks only. One
// scheduler serves both baseline families of the tables, told apart by the
// steal Policy chosen at construction. StealHalf is the paper's own §2
// work-stealer (Algorithms 1–4, the "Randfork" column): a thief transfers
// half the victim's queue via popappend and backs off exponentially after a
// miss — deliberately the plain textbook algorithm, because the paper
// reports that "random work-stealing is much more sensible to
// tuning-parameters, and requires some more tricks to work well" and
// measured it without them. StealOne is the substitute for the
// closed-source Cilk++ runtime behind the "Cilk" and "Cilk sample" columns
// (Tables 1, 2, 5, 6), following the Cilk scheduler model (Blumofe et al.,
// "Cilk: An efficient multithreaded runtime system"): a thief takes exactly
// one task from the top of the victim's deque and re-draws the victim after
// only a brief yield, spinning aggressively instead of sleeping. Cilk's
// work-first order (the child runs immediately, the continuation is
// stealable) cannot be expressed without continuations, so the substitute
// is help-first like every such approximation: spawned children go to the
// deque bottom and the parent continues, which preserves the depth-first
// local execution order Cilk's performance model relies on.
package classic

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/backoff"
	"repro/internal/deque"
	"repro/internal/stats"
	"repro/internal/topo"
)

// Task is a single-threaded unit of work.
type Task interface {
	Run(ctx *Ctx)
}

type funcTask func(*Ctx)

func (f funcTask) Run(ctx *Ctx) { f(ctx) }

// Func adapts a function to the Task interface.
func Func(fn func(*Ctx)) Task { return funcTask(fn) }

// Ctx is the execution context of a running task.
type Ctx struct {
	w *worker
}

// Spawn pushes t onto the executing worker's deque.
func (c *Ctx) Spawn(t Task) { c.w.spawn(t) }

// WorkerID returns the executing worker's id.
func (c *Ctx) WorkerID() int { return c.w.id }

// Policy is what a thief does at its victim and after a miss — the one
// difference between the two baselines (see the package documentation).
type Policy int

const (
	// StealHalf transfers half the victim's queue per steal and backs off
	// exponentially after every miss (Algorithm 3).
	StealHalf Policy = iota
	// StealOne takes a single task per steal and yields between misses,
	// backing off only after yieldMisses consecutive ones (the Cilk model).
	StealOne
)

// yieldMisses is the number of consecutive missed steals a StealOne thief
// answers with a bare yield before it starts backing off, which keeps the
// spinning thieves fair under Go's runtime.
const yieldMisses = 64

// Options configures the scheduler.
type Options struct {
	// P is the number of workers. Default: runtime.NumCPU().
	P int
	// Policy is the steal policy. Default: StealHalf.
	Policy Policy
	// Seed seeds victim selection.
	Seed uint64
}

type node struct{ task Task }

type worker struct {
	id    int
	sched *Scheduler
	q     *deque.Deque[node]
	st    stats.Worker
	bo    backoff.Backoff
	rng   uint64
}

// Scheduler is a randomized work-stealing scheduler for single-threaded
// tasks.
type Scheduler struct {
	policy   Policy
	workers  []*worker
	inflight atomic.Int64
	done     atomic.Bool
	wg       sync.WaitGroup

	injectMu sync.Mutex
	inject   []*node
}

// New starts the scheduler's workers.
func New(opts Options) *Scheduler {
	if opts.P <= 0 {
		opts.P = runtime.NumCPU()
	}
	topo.EnsureGOMAXPROCS(opts.P)
	s := &Scheduler{policy: opts.Policy}
	s.workers = make([]*worker, opts.P)
	for i := range s.workers {
		s.workers[i] = &worker{
			id:    i,
			sched: s,
			q:     deque.New[node](),
			rng:   opts.Seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15,
		}
	}
	s.wg.Add(opts.P)
	for _, w := range s.workers {
		go w.loop()
	}
	return s
}

// P returns the number of workers.
func (s *Scheduler) P() int { return len(s.workers) }

// Spawn submits a task from outside the scheduler.
func (s *Scheduler) Spawn(t Task) {
	s.inflight.Add(1)
	s.injectMu.Lock()
	s.inject = append(s.inject, &node{task: t})
	s.injectMu.Unlock()
}

// Wait blocks until all tasks have completed.
func (s *Scheduler) Wait() {
	var bo backoff.Backoff
	for s.inflight.Load() > 0 {
		bo.Wait()
	}
}

// Run submits t and waits for quiescence.
func (s *Scheduler) Run(t Task) {
	s.Spawn(t)
	s.Wait()
}

// Shutdown stops all workers (idempotent; abandons outstanding work).
func (s *Scheduler) Shutdown() {
	s.done.Store(true)
	s.wg.Wait()
}

// Stats aggregates all worker counters.
func (s *Scheduler) Stats() stats.Snapshot {
	var total stats.Snapshot
	for _, w := range s.workers {
		total.Add(w.st.Snapshot())
	}
	return total
}

func (s *Scheduler) takeInjected(w *worker) bool {
	s.injectMu.Lock()
	if len(s.inject) == 0 {
		s.injectMu.Unlock()
		return false
	}
	n := s.inject[0]
	s.inject = s.inject[1:]
	s.injectMu.Unlock()
	w.q.PushBottom(n)
	return true
}

func (w *worker) spawn(t Task) {
	w.sched.inflight.Add(1)
	w.q.PushBottom(&node{task: t})
	w.st.Spawns.Add(1)
}

func (w *worker) rand() uint64 {
	w.rng += 0x9e3779b97f4a7c15
	z := w.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// run executes a node taken from a deque. The node's task is cleared first:
// the deque leaves the vacated slot pointing at the node, and the node must
// not keep a finished task (and what it captures) alive.
func (w *worker) run(n *node) {
	ctx := Ctx{w: w}
	w.st.TasksRun.Add(1)
	t := n.task
	n.task = nil
	t.Run(&ctx)
	w.sched.taskDone()
	w.bo.Reset()
}

func (s *Scheduler) taskDone() { s.inflight.Add(-1) }

// loop is Algorithm 1/2: run local tasks depth-first; when the local queue
// empties, steal from a random victim; after a miss, back off (or, under
// StealOne, yield for the first yieldMisses misses in a row).
func (w *worker) loop() {
	defer w.sched.wg.Done()
	s := w.sched
	misses := 0
	for !s.done.Load() {
		if n := w.q.PopBottom(); n != nil {
			w.run(n)
			misses = 0
			continue
		}
		if s.takeInjected(w) {
			continue
		}
		if w.steal() {
			misses = 0
			continue
		}
		misses++
		w.st.FailedAttempts.Add(1)
		if s.policy == StealOne && misses < yieldMisses {
			runtime.Gosched()
			continue
		}
		w.st.Backoffs.Add(1)
		w.bo.Wait()
	}
}

// steal chooses a random victim and takes work off the top of its deque —
// half the queue under StealHalf (Algorithm 3, popappend), one task under
// StealOne; the last stolen task is executed directly.
func (w *worker) steal() bool {
	s := w.sched
	p := len(s.workers)
	if p == 1 {
		return false
	}
	w.st.StealAttempts.Add(1)
	v := int(w.rand() % uint64(p-1))
	if v >= w.id {
		v++
	}
	victim := s.workers[v].q
	cnt := 1
	if s.policy == StealHalf {
		cnt = max(1, victim.Size()/2)
	}
	last, n := deque.Steal(victim, w.q, cnt)
	if n == 0 {
		return false
	}
	w.st.Steals.Add(1)
	w.st.TasksStolen.Add(int64(n))
	w.run(last)
	return true
}
