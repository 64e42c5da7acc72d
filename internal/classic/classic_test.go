package classic

import (
	"sync"
	"sync/atomic"
	"testing"
)

func newTest(t *testing.T, opts Options) *Scheduler {
	t.Helper()
	s := New(opts)
	t.Cleanup(s.Shutdown)
	return s
}

func TestRunsAllTasks(t *testing.T) {
	s := newTest(t, Options{P: 4})
	var ran atomic.Int64
	const n = 2000
	for i := 0; i < n; i++ {
		s.Spawn(Func(func(*Ctx) { ran.Add(1) }))
	}
	s.Wait()
	if got := ran.Load(); got != n {
		t.Fatalf("ran %d, want %d", got, n)
	}
}

func TestRecursiveSpawn(t *testing.T) {
	s := newTest(t, Options{P: 8})
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
}

// TestWorkIsDistributed forces the steal instead of hoping for it: the root
// blocks inside Run until one of its children has executed on another
// worker, and the only way off the root's deque is a thief.
func TestWorkIsDistributed(t *testing.T) {
	s := newTest(t, Options{P: 4})
	const children = 64
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
	st := s.Stats()
	if st.Steals == 0 {
		t.Fatal("no steals recorded: load balancing is dead")
	}
	if st.TasksRun != children+1 {
		t.Fatalf("TasksRun = %d, want %d", st.TasksRun, children+1)
	}
}

func TestStealOneOption(t *testing.T) {
	s := newTest(t, Options{P: 4, StealOne: true})
	var ran atomic.Int64
	s.Run(Func(func(ctx *Ctx) {
		for i := 0; i < 500; i++ {
			ctx.Spawn(Func(func(*Ctx) { ran.Add(1) }))
		}
	}))
	if got := ran.Load(); got != 500 {
		t.Fatalf("ran %d", got)
	}
	st := s.Stats()
	if st.Steals != st.TasksStolen {
		t.Fatalf("StealOne: steals=%d stolen=%d, must match", st.Steals, st.TasksStolen)
	}
}

func TestMaxStealCap(t *testing.T) {
	s := newTest(t, Options{P: 2, MaxSteal: 3})
	var ran atomic.Int64
	s.Run(Func(func(ctx *Ctx) {
		for i := 0; i < 1000; i++ {
			ctx.Spawn(Func(func(*Ctx) { ran.Add(1) }))
		}
	}))
	if ran.Load() != 1000 {
		t.Fatalf("ran %d", ran.Load())
	}
}

func TestP1(t *testing.T) {
	s := newTest(t, Options{P: 1})
	var ran atomic.Int64
	s.Run(Func(func(ctx *Ctx) {
		ctx.Spawn(Func(func(*Ctx) { ran.Add(1) }))
	}))
	if ran.Load() != 1 {
		t.Fatal("single-worker scheduler broken")
	}
}

func TestReuse(t *testing.T) {
	s := newTest(t, Options{P: 4})
	var ran atomic.Int64
	for i := 0; i < 10; i++ {
		s.Run(Func(func(*Ctx) { ran.Add(1) }))
	}
	if ran.Load() != 10 {
		t.Fatalf("ran %d", ran.Load())
	}
}
