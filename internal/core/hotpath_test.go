package core

// Tests for the allocation-free, contention-free per-task hot path: the
// zero-alloc regression gate for the interior spawn path, a recycling
// stress test (many groups × steals) proving node reuse never loses or
// duplicates a task, the whitebox pin that injected takes are reported
// as takes, not spawns, and the check that no finished task stays reachable.

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/freelist"
	"repro/internal/stats"
)

// TestSpawnZeroAlloc is the regression gate for the tentpole property: a
// steady-state interior Ctx.Spawn + run of pooled solo tasks performs zero
// heap allocations per task — nodes come from the worker free lists, the
// accounting is one add on the group's counter, and the deque rings are
// pre-grown. The task value itself is reused, as the pooled spawn wrappers
// of the sorting packages do.
func TestSpawnZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := New(Options{P: 2})
	defer s.Shutdown()
	// The metrics surface must not change the hot path: build the registry
	// (closures over the live counters) and render it once up front, then
	// measure with the instrumentation in place.
	if out := s.Metrics().Render(); !strings.Contains(out, "repro_sched_tasks_total") {
		t.Fatalf("metrics render lacks scheduler counters:\n%s", out)
	}
	const k = 64
	ct := &benchCountdown{}
	start := make(chan struct{})
	// Runs before Shutdown (LIFO): the driver task must leave its receive
	// loop, or Shutdown would wait forever for its worker.
	defer close(start)
	round := make(chan struct{})
	s.NewGroup().Spawn(Solo(func(ctx *Ctx) {
		for range start {
			ct.remaining.Store(k)
			for i := 0; i < k; i++ {
				ctx.Spawn(ct)
			}
			drainOwn(ctx, ct)
			round <- struct{}{}
		}
	}))
	doRound := func() {
		start <- struct{}{}
		<-round
	}
	// Warm up: fill the node free lists, grow the deque rings, let every
	// goroutine allocate its one-off runtime state (sleep timers etc.).
	for i := 0; i < 16; i++ {
		doRound()
	}
	if avg := testing.AllocsPerRun(50, doRound); avg != 0 {
		t.Fatalf("interior spawn path allocates: %v allocs per %d-task round, want 0", avg, k)
	}
}

// TestNodeRecyclingStress hammers node recycling from many concurrent
// groups whose task trees are spawned, stolen, and completed across
// workers, proving a recycled node is never observed by two live tasks: a
// double-delivered node would run some task twice (count too high), a lost
// node would hang the group's Wait or leave counts low, and under -race the
// detector checks the recycle-reuse handoff itself.
func TestNodeRecyclingStress(t *testing.T) {
	s := New(Options{P: 4})
	defer s.Shutdown()
	const (
		clients = 8
		rounds  = 6
		roots   = 24
		depth   = 3 // binary tree: 2^(depth+1)−1 tasks per root
	)
	perTree := int64(1<<(depth+1) - 1)
	var tree func(ran *atomic.Int64, d int) func(*Ctx)
	tree = func(ran *atomic.Int64, d int) func(*Ctx) {
		return func(ctx *Ctx) {
			ran.Add(1)
			if d > 0 {
				ctx.Spawn(Solo(tree(ran, d-1)))
				ctx.Spawn(Solo(tree(ran, d-1)))
			}
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := s.NewGroup()
			var ran atomic.Int64
			for r := 0; r < rounds; r++ {
				for k := 0; k < roots; k++ {
					g.Spawn(Solo(tree(&ran, depth)))
				}
				g.Wait()
				if got, want := ran.Load(), int64(r+1)*roots*perTree; got != want {
					t.Errorf("round %d: ran %d tasks, want %d", r, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if p := s.Pending(); p != 0 {
		t.Fatalf("pending = %d after drain", p)
	}
	want := int64(clients * rounds * roots * int(perTree))
	if st := s.Stats(); st[stats.TasksRun] != want {
		t.Fatalf("TasksRun = %d, want %d", st[stats.TasksRun], want)
	}
}

// TestWBSpawnStatNotDoubleCounted pins the stats fix: a takeInjected is
// reported as an inject take, not as a spawn — only true spawn sites
// (Ctx.Spawn) move the Spawns counter, so Spawns + InjectTakes accounts
// every solo queue entry exactly once.
func TestWBSpawnStatNotDoubleCounted(t *testing.T) {
	s := stopped(2)
	w := s.workers[0]
	g := s.NewGroup()
	g.Spawn(Solo(func(ctx *Ctx) {
		ctx.Spawn(Solo(func(*Ctx) {}))
	}))
	if !s.takeInjected(w) {
		t.Fatal("takeInjected found no work")
	}
	if got := w.st[stats.Spawns].Load(); got != 0 {
		t.Fatalf("injected take counted as %d spawns, want 0", got)
	}
	if got := w.st[stats.InjectTakes].Load(); got != 1 {
		t.Fatalf("InjectTakes = %d, want 1", got)
	}
	w.runSolo(w.queues[0].PopBottom()) // root runs and spawns one child
	if got := w.st[stats.Spawns].Load(); got != 1 {
		t.Fatalf("interior spawn counted %d, want 1", got)
	}
	w.runSolo(w.queues[0].PopBottom())
	st := w.st.Snapshot()
	if st[stats.TasksRun] != 2 || st[stats.Spawns]+st[stats.InjectTakes] != st[stats.TasksRun] {
		t.Fatalf("accounting broken: tasks=%d spawns=%d takes=%d",
			st[stats.TasksRun], st[stats.Spawns], st[stats.InjectTakes])
	}
	if g.Pending() != 0 || s.Pending() != 0 {
		t.Fatalf("counts leaked: group=%d global=%d", g.Pending(), s.Pending())
	}
}

// TestNodeFreeListBounded checks the overflow path: completing far more
// tasks than the stack's capacity on one worker spills to the scheduler's
// shared level instead of growing the stack without bound.
func TestNodeFreeListBounded(t *testing.T) {
	s := stopped(2)
	w := s.workers[0]
	for i := 0; i < 4*freelist.StackCap; i++ {
		w.push(Solo(func(*Ctx) {}))
		w.runSolo(w.queues[0].PopBottom())
	}
	if got := w.free.Len(); got > freelist.StackCap {
		t.Fatalf("free list grew to %d, cap %d", got, freelist.StackCap)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d", s.Pending())
	}
}

// retainProbe is a task whose collection TestFinishedTaskNotRetained waits
// for; it tells the test when a thief ran it.
type retainProbe struct {
	home  int
	stole func()
}

func (p *retainProbe) Threads() int { return 1 }
func (p *retainProbe) Run(ctx *Ctx) {
	if ctx.WorkerID() != p.home {
		p.stole()
	}
}

// TestFinishedTaskNotRetained is the no-retention guarantee the deque left
// to its element owners: it does not clear a slot on pop, so freeNode must
// clear the node. Finished tasks — joined and detached, popped by their
// owner (the last one included) or stolen — must be collectable while the
// scheduler, its deques and their stale slots are alive.
func TestFinishedTaskNotRetained(t *testing.T) {
	s := newTest(t, Options{P: 2})
	const n = 32
	var collected atomic.Int64
	stolen := make(chan struct{})
	var once sync.Once
	err := s.NewGroup().Run(Solo(func(ctx *Ctx) {
		probe := func() Task {
			p := &retainProbe{home: ctx.WorkerID(), stole: func() { once.Do(func() { close(stolen) }) }}
			runtime.SetFinalizer(p, func(*retainProbe) { collected.Add(1) })
			return p
		}
		var tg TaskGroup
		for i := 0; i < n; i++ {
			tg.Spawn(ctx, probe())
			ctx.Spawn(probe())
		}
		<-stolen
		tg.Wait(ctx)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st[stats.Steals] == 0 {
		t.Fatal("no steal despite the latch")
	}
	for deadline := time.Now().Add(5 * time.Second); collected.Load() < 2*n && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := collected.Load(); got != 2*n {
		t.Fatalf("%d of %d finished tasks still reachable", 2*n-got, 2*n)
	}
	runtime.KeepAlive(s)
}
