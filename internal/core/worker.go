package core

import (
	"sync/atomic"

	"repro/internal/backoff"
	"repro/internal/deque"
	"repro/internal/freelist"
	"repro/internal/reg"
	"repro/internal/stats"
	"repro/internal/teamsync"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/wake"
)

// teamExec is the description of one team task execution, embedded in its
// coordinator's worker and rewritten for each execution it publishes. The
// publication is the word cur (pubWord): team members poll it, pick the
// execution up exactly once (identified by its generation) and participate
// if their team-local id is below the task's actual width (Refinement 2
// surplus members pick up but do not run). A member reads the plain fields
// only between its pickup and its tick, and the coordinator rewrites them
// only once the countdown has reached zero, after every tick: the countdown
// G of the paper is the whole argument for the record's reuse.
type teamExec struct {
	task     Task
	group    *Group          // quiescence group of the task
	teamSize int             // power-of-two team size
	width    int             // actual thread requirement r ≤ teamSize
	coordID  int             // the owning worker's id, set once
	tid      uint64          // trace id of the task's creating event (0 untraced)
	pending  atomic.Int32    // countdown: the teamSize−1 other workers of the block, one tick each
	barrier  teamsync.Phaser // width participants; they park on their workers' slots
}

// pubWord packs a published execution into cur's one word: its
// scheduler-unique generation and log2 of its team size. 0 means none.
func pubWord(gen uint64, lvl int) uint64 { return gen<<8 | uint64(lvl) }

// pubGen and pubSize unpack a word of pubWord.
func pubGen(x uint64) uint64 { return x >> 8 }
func pubSize(x uint64) int   { return 1 << (x & 0xff) }

// worker is one of the p scheduler workers ("hardware threads").
type worker struct {
	id    int
	sched *Scheduler

	// queues[j] holds tasks with thread requirement in (2^{j-1}, 2^j]
	// (Refinement 1: one queue per size class).
	queues []*deque.Deque[node]

	regw  reg.Word               // the packed registration structure R (§3)
	coord atomic.Pointer[worker] // c: current coordinator (self when free)
	cur   atomic.Uint64          // the published team execution (pubWord), 0 if none

	st stats.Worker
	bo backoff.Backoff

	// Owner-only member-side state.
	regEpoch uint16 // epoch N observed at registration
	teamed   bool   // member of a fixed team
	lastGen  uint64 // generation of the last picked-up team execution

	// Owner-only hot-path state: the node stack and the Ctx free list
	// (nodepool.go), and the Spawns and TasksRun stats counted plain.
	// flushStats publishes the two counts before every atomic write that can
	// complete a task, so the stats are exact after any Wait (README.md,
	// Per-task atomic-write budget) and cost nothing per joined child. They
	// sit here, away from slot, which other workers CAS to wake this one.
	spawns, ran int64
	free        freelist.Stack[*node]
	ctxFree     []*Ctx

	// freeLen mirrors free.Len() for concurrent readers (metrics gauges,
	// DumpState), so scrapers never race on the stack itself. The owner
	// publishes it off the per-task path, when it runs out of work
	// (idleWait), so the gauge is exact on an idle worker and at most
	// freelist.StackCap stale on a busy one.
	freeLen atomic.Int64

	// Parking (park.go, teamwait.go). slot is where the worker sleeps in
	// every wait that has a waker: announced as slotIdle it is the worker's
	// membership in the parked set, as slotBarrier or slotTeamWait a wait
	// inside a fixed team. searching is owner-only and mirrors whether the
	// worker is counted in the scheduler's searcher count.
	slot      wake.Slot
	searching bool

	// state publishes the worker's coarse activity (a trace.State) for the
	// sampling profiler and DumpState. The owner stores it only when it
	// changes (setState), so back-to-back tasks write nothing.
	state atomic.Uint32

	rngState uint64

	// exec is the record of the team executions this worker coordinates, on
	// cache lines of its own: members write its countdown and barrier while
	// the owner runs its share.
	_    [64]byte
	exec teamExec
	_    [64]byte
}

func newWorker(s *Scheduler, id int) *worker {
	w := &worker{
		id:       id,
		sched:    s,
		rngState: s.opts.Seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15,
	}
	w.exec.coordID = id
	w.slot.Init()
	w.queues = make([]*deque.Deque[node], s.topo.QueueLevels)
	for j := range w.queues {
		w.queues[j] = deque.New[node]()
	}
	w.regw.Store(reg.Idle(0))
	w.coord.Store(w)
	return w
}

// rand is a SplitMix64 step for randomized partner selection.
func (w *worker) rand() uint64 {
	w.rngState += 0x9e3779b97f4a7c15
	z := w.rngState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (w *worker) coordp() *worker { return w.coord.Load() }

// cas is the one write of a registration word after its initial Store: it
// replaces x's word r by nr, the result of a reg rule, or counts a failure.
// It records one event of kind k, X = nr.Acq and Arg = reg.Pack(nr), so a
// trace carries every word the scheduler wrote. The members of x's old team
// outside a lower nr.Team may be parked in memberStep with nothing left to
// wait for: they are woken to see that they left.
//
//repro:noalloc the team wake helper
func (w *worker) cas(x *worker, r, nr reg.R, k trace.Kind, other int) bool {
	if !x.regw.CAS(r, nr) {
		w.st[stats.CASFailures].Add(1)
		return false
	}
	w.ev(k, other, int(nr.Acq), reg.Pack(nr))
	if old, kept := int(r.Team), int(nr.Team); kept < old {
		w.wakeRange(topo.TeamLeft(x.id, old), topo.TeamLeft(x.id, kept), wakeTeamWait)
		w.wakeRange(topo.TeamRight(x.id, kept), topo.TeamRight(x.id, old), wakeTeamWait)
	}
	return true
}

// partnerAt returns the worker's partner at level l, honoring the Randomized
// option (Refinement 4) and missing partners for non-power-of-two p
// (Refinement 3). Returns nil if no partner exists at this level.
func (w *worker) partnerAt(l int) *worker {
	s := w.sched
	if s.opts.Randomized {
		if q := s.topo.RandPartner(w.id, l, w.rand()); q >= 0 {
			return s.workers[q]
		}
		// Randomly chosen partner is missing (p not a power of two): fall
		// back to the deterministic partner so orphaned tasks stay reachable.
	}
	q := s.topo.Partner(w.id, l)
	if q < 0 {
		return nil
	}
	return s.workers[q]
}

// spawn pushes a new detached task of group g onto the local queues
// (Ctx.Spawn), accounted on g's in-flight count. The running task holds a
// unit of g, so this is never g's 0→1 transition and the busy set is not
// consulted. Accounting happens before the node becomes visible in any
// queue, so no Wait can observe a transient zero while the tree still grows.
//
//repro:noalloc the r = 1 spawn path is the paper's zero-overhead claim; TestSpawnZeroAlloc pins it
func (w *worker) spawn(t Task, g *Group) {
	r := t.Threads()
	w.sched.validateReq(r)
	g.inflight.Add(1)
	w.pushTask(t, r, g, nil)
}

// pushTask wraps an accounted task in a node from the worker's free list and
// makes it runnable. It is the steady-state interior hot path shared by
// detached (spawn) and joined (TaskGroup.Spawn) children: nothing is
// allocated and, beyond the caller's completion counter, only the deque is
// written atomically — the r = 1 spawn really does cost no more than
// classical work-stealing.
//
//repro:noalloc runs once per interior spawn
func (w *worker) pushTask(t Task, r int, g *Group, join *TaskGroup) {
	n := w.getNode() //repro:allow getNode's cold path, inlined here
	n.task, n.r, n.group, n.join = t, r, g, join
	if xt := w.sched.xt; xt.Enabled() {
		n.tid = xt.Record(w.id, trace.EvSpawn, w.id, uint32(r), 0)
	}
	w.spawns++
	w.pushNode(n)
}

// flushStats publishes the owner-plain spawn and run counts. Every chain of
// completions that ends in a Wait's release passes through it on each
// worker involved: it runs before taskDone's decrement, a TaskGroup
// decrement from a worker that is not the group's owner, and a team tick.
//
//repro:noalloc runs once per task completion
func (w *worker) flushStats() {
	if w.spawns != 0 {
		w.st[stats.Spawns].Add(w.spawns)
		w.spawns = 0
	}
	if w.ran != 0 {
		w.st[stats.TasksRun].Add(w.ran)
		w.ran = 0
	}
}

// pushNode makes an already-accounted node runnable on the local queue of
// its size class and, if anybody is parked, wakes a worker that can steal
// it (park.go). The check is one load of a read-mostly word that finds zero
// whenever all workers are busy — all an interior spawn pays for parking.
//
//repro:noalloc runs once per interior spawn
func (w *worker) pushNode(n *node) {
	j := topo.Level(n.r)
	w.queues[j].PushBottom(n)
	if w.sched.park.n.Load() != 0 {
		w.wakeThief(w, j)
	}
}

// loop is the worker main loop (Algorithm 1 + Algorithm 5 structure):
// member polling takes precedence, then local coordination/execution, then
// externally injected tasks, then stealing, then a spin round or the park.
// Shutdown ends it, but not over a published team execution the worker has
// yet to pick up: a barrier inside may be waiting for it, so it runs its share.
func (w *worker) loop() {
	defer w.sched.wg.Done()
	s := w.sched
	for !s.done.Load() || w.pickable(w.coordp()) != 0 {
		if f := s.opts.Fault; f != nil {
			f(FaultWorkerLoop, w.id)
		}
		if w.coordp() != w {
			w.setState(trace.StateMember)
			w.memberStep()
			continue
		}
		w.coordinate()
		if w.coordp() != w {
			continue
		}
		if s.takeInjected(w) {
			w.bo.Reset()
			continue
		}
		w.setState(trace.StateSteal)
		w.st[stats.StealAttempts].Add(1)
		w.ev(trace.EvStealAttempt, w.id, 0, 0)
		if w.stealTasks() {
			w.bo.Reset()
			w.stopSearching() // a registration; a steal already stopped it
			continue
		}
		w.st[stats.FailedAttempts].Add(1)
		w.idleWait()
	}
}

// idleWait follows an unsuccessful steal round: one spin or yield round
// while the backoff's budget lasts — they catch back-to-back requests — and
// after that the park, which ends only when a publisher wakes the worker or
// the scheduler shuts down. No timer runs for an idle worker.
func (w *worker) idleWait() {
	w.st[stats.Backoffs].Add(1)
	w.freeLen.Store(int64(w.free.Len()))
	w.flushStats()
	w.setState(trace.StatePark)
	w.ev(trace.EvPark, w.id, 0, 0)
	w.startSearching()
	if !w.bo.Pause() {
		w.park()
	}
	w.ev(trace.EvUnpark, w.id, 0, 0)
	w.setState(trace.StateIdle)
}

// runSolo executes a single-threaded task (the classical work-stealing fast
// path; no registration traffic, matching the paper's "no extra overhead"
// claim for r = 1). The node is recycled before the task runs — its content
// is already copied out, and freeing first lets the task's own spawns reuse
// it immediately. The completion is reported on the task's one target: its
// TaskGroup if it was joined, its Group otherwise.
//
//repro:noalloc the r = 1 execution path allocates nothing around Task.Run
func (w *worker) runSolo(n *node) {
	task, g, join, tid := n.task, n.group, n.join, n.tid
	w.freeNode(n)
	ctx := w.getCtx() //repro:allow getCtx's cold refill, inlined here
	ctx.w, ctx.group, ctx.join = w, g, join
	w.ran++
	prev := w.setState(trace.StateRun)
	if xt := w.sched.xt; xt.Enabled() {
		xt.Record(w.id, trace.EvStart, w.id, 1, tid)
	}
	task.Run(ctx)
	if xt := w.sched.xt; xt.Enabled() {
		xt.Record(w.id, trace.EvDone, w.id, 1, tid)
	}
	// A top-level run leaves StateRun standing: the loop's next transition
	// (or the next task, for free) overwrites it. Only a run nested in a
	// team task (TaskGroup.Wait helping) has an outer state to restore.
	if prev == trace.StateRunTeam {
		w.setState(prev)
	}
	w.putCtx(ctx)
	if join != nil {
		join.done(w)
	} else {
		w.taskDone(g)
	}
	w.bo.Reset()
}

// runTeamPart executes this worker's share of a team task.
func (w *worker) runTeamPart(exec *teamExec, lid int) {
	ctx := w.getCtx()
	ctx.w, ctx.exec, ctx.localID, ctx.group = w, exec, lid, exec.group
	w.ran++
	w.st[stats.TeamTasksRun].Add(1)
	prev := w.setState(trace.StateRunTeam)
	if xt := w.sched.xt; xt.Enabled() {
		xt.Record(w.id, trace.EvStart, exec.coordID, uint32(exec.width), exec.tid)
	}
	exec.task.Run(ctx)
	if xt := w.sched.xt; xt.Enabled() {
		xt.Record(w.id, trace.EvDone, exec.coordID, uint32(exec.width), exec.tid)
	}
	w.setState(prev)
	w.putCtx(ctx)
}

// memberStep is one polling iteration of a worker whose coordinator is
// another worker: validate the registration, pick up a published team
// execution, or help build the team (Algorithm 5 lines 7–14).
func (w *worker) memberStep() {
	c := w.coordp()
	rc := c.regw.Load()
	// Fixed-team membership is determined by block position: while c's team
	// is fixed (t > 1), the team consists of exactly the t workers of the
	// block around c, so a registered worker inside that block is a member
	// even if it has not observed the team-fix yet. Epoch (N) checks apply
	// only to registrants outside the team: coordinator transitions that
	// bump the epoch (reg.Reset) always keep a = t, i.e. they revoke
	// everyone except the surviving block.
	switch {
	case rc.Holds(c.id, w.id):
		w.teamed = true
		w.regEpoch = rc.Epoch // adopt the epoch across shrinks/preempts
	case w.teamed:
		// Was teamed, now outside the (shrunk or disbanded) team.
		w.ev(trace.EvLeaveTeam, c.id, int(rc.Team), uint64(rc.Epoch))
		w.leave(c)
		return
	case rc.Epoch != w.regEpoch:
		// Non-team registration revoked (coordinator reset or yielded).
		w.ev(trace.EvRevoked, c.id, int(rc.Epoch), uint64(w.regEpoch))
		w.st[stats.Revocations].Add(1)
		w.leave(c)
		return
	}
	if gen := w.pickable(c); gen != 0 {
		exec := &c.exec
		w.lastGen = gen
		w.teamed = true
		lid := topo.LocalID(w.id, c.id, exec.teamSize)
		w.ev(trace.EvPickup, c.id, lid, gen)
		if lid < exec.width {
			w.runTeamPart(exec, lid)
		}
		w.tick(exec)
		w.bo.Reset()
		return
	}
	if !w.teamed {
		// Help gather the remaining members / resolve coordination conflicts.
		w.pollPartners(c, int(rc.Req))
		if w.coordp() == w {
			return
		}
	}
	w.st[stats.Backoffs].Add(1)
	if !w.teamed {
		w.bo.Wait()
	} else if !w.bo.Pause() {
		// A fixed team's member has nobody to poll: it waits for c's next
		// execution or the end of its membership, and c wakes it for both
		// (publishAndRun, cas).
		w.teamPark(slotTeamWait)
		w.teamSleep(slotTeamWait, w.pickable(c) != 0 || c.regw.Load() != rc || w.sched.done.Load())
	}
}

// pickable returns the generation of the execution c publishes if w is in
// its team and has yet to pick it up, and 0 otherwise. It reads only c's
// word and c.id: the record is w's to read only from its pickup to its
// tick, and outside that window c may be rewriting it.
func (w *worker) pickable(c *worker) uint64 {
	x := c.cur.Load()
	if x == 0 || pubGen(x) == w.lastGen || !topo.Overlap(c.id, w.id, pubSize(x)) {
		return 0
	}
	return pubGen(x)
}
