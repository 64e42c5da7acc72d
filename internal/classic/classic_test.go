package classic

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var policies = []struct {
	name   string
	policy Policy
}{
	{"StealHalf", StealHalf},
	{"StealOne", StealOne},
}

func newTest(t *testing.T, opts Options) *Scheduler {
	t.Helper()
	s := New(opts)
	t.Cleanup(s.Shutdown)
	return s
}

// forEachPolicy runs body as one subtest per steal policy on a fresh
// scheduler of p workers.
func forEachPolicy(t *testing.T, p int, body func(t *testing.T, s *Scheduler)) {
	for _, pc := range policies {
		t.Run(pc.name, func(t *testing.T) {
			body(t, newTest(t, Options{P: p, Policy: pc.policy}))
		})
	}
}

func TestRunsAllTasks(t *testing.T) {
	forEachPolicy(t, 4, func(t *testing.T, s *Scheduler) {
		var ran atomic.Int64
		const n = 2000
		for i := 0; i < n; i++ {
			s.Spawn(Func(func(*Ctx) { ran.Add(1) }))
		}
		s.Wait()
		if got := ran.Load(); got != n {
			t.Fatalf("ran %d, want %d", got, n)
		}
	})
}

func TestRecursiveSpawn(t *testing.T) {
	forEachPolicy(t, 8, func(t *testing.T, s *Scheduler) {
		var ran atomic.Int64
		var rec func(d int) Task
		rec = func(d int) Task {
			return Func(func(ctx *Ctx) {
				ran.Add(1)
				if d > 0 {
					ctx.Spawn(rec(d - 1))
					ctx.Spawn(rec(d - 1))
				}
			})
		}
		s.Run(rec(12))
		if got, want := ran.Load(), int64(1<<13-1); got != want {
			t.Fatalf("ran %d, want %d", got, want)
		}
	})
}

// forcedSteal forces the steal instead of hoping for it: the root blocks
// inside Run until one of its children has executed on another worker, and
// the only way off the root's deque is a thief.
func forcedSteal(s *Scheduler, children int) {
	stolen := make(chan struct{})
	var once sync.Once
	s.Run(Func(func(ctx *Ctx) {
		home := ctx.WorkerID()
		for i := 0; i < children; i++ {
			ctx.Spawn(Func(func(c *Ctx) {
				if c.WorkerID() != home {
					once.Do(func() { close(stolen) })
				}
			}))
		}
		<-stolen
	}))
}

func TestWorkIsDistributed(t *testing.T) {
	s := newTest(t, Options{P: 4, Policy: StealHalf})
	const children = 64
	forcedSteal(s, children)
	st := s.Stats()
	if st.Steals == 0 {
		t.Fatal("no steals recorded: load balancing is dead")
	}
	if st.TasksRun != children+1 {
		t.Fatalf("TasksRun = %d, want %d", st.TasksRun, children+1)
	}
}

func TestStealsAreSingle(t *testing.T) {
	s := newTest(t, Options{P: 4, Policy: StealOne})
	forcedSteal(s, 64)
	st := s.Stats()
	if st.Steals == 0 {
		t.Fatal("no steals recorded")
	}
	if st.Steals != st.TasksStolen {
		t.Fatalf("StealOne must steal one at a time: steals=%d stolen=%d", st.Steals, st.TasksStolen)
	}
}

func TestP1(t *testing.T) {
	forEachPolicy(t, 1, func(t *testing.T, s *Scheduler) {
		var ran atomic.Int64
		s.Run(Func(func(ctx *Ctx) {
			ctx.Spawn(Func(func(*Ctx) { ran.Add(1) }))
		}))
		if ran.Load() != 1 {
			t.Fatal("single-worker scheduler broken")
		}
	})
}

func TestReuse(t *testing.T) {
	forEachPolicy(t, 4, func(t *testing.T, s *Scheduler) {
		var ran atomic.Int64
		for i := 0; i < 10; i++ {
			s.Run(Func(func(*Ctx) { ran.Add(1) }))
		}
		if ran.Load() != 10 {
			t.Fatalf("ran %d", ran.Load())
		}
	})
}

// retainProbe is a task whose collection TestFinishedTaskNotRetained waits
// for; it tells the test when a thief ran it.
type retainProbe struct {
	home  int
	stole func()
}

func (p *retainProbe) Run(ctx *Ctx) {
	if ctx.WorkerID() != p.home {
		p.stole()
	}
}

// TestFinishedTaskNotRetained is the no-retention guarantee the deque left
// to its element owners: it does not clear a slot on pop, so run must clear
// the node. Finished tasks — popped by their owner, the last one included,
// or stolen — must be collectable while the scheduler, its deques and their
// stale slots are alive.
func TestFinishedTaskNotRetained(t *testing.T) {
	s := newTest(t, Options{P: 2, Policy: StealHalf})
	const n = 64
	var collected atomic.Int64
	stolen := make(chan struct{})
	var once sync.Once
	s.Run(Func(func(ctx *Ctx) {
		for i := 0; i < n; i++ {
			p := &retainProbe{home: ctx.WorkerID(), stole: func() { once.Do(func() { close(stolen) }) }}
			runtime.SetFinalizer(p, func(*retainProbe) { collected.Add(1) })
			ctx.Spawn(p)
		}
		<-stolen
	}))
	if st := s.Stats(); st.Steals == 0 {
		t.Fatal("no steal despite the latch")
	}
	for deadline := time.Now().Add(5 * time.Second); collected.Load() < n && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := collected.Load(); got != n {
		t.Fatalf("%d of %d finished tasks still reachable", n-got, n)
	}
	runtime.KeepAlive(s)
}
