package cilk

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

// TestStealsAreSingle forces the steals it counts: the root blocks inside
// Run until a child has executed on another worker, which only a thief can
// arrange.
func TestStealsAreSingle(t *testing.T) {
	s := newTest(t, Options{P: 4})
	stolen := make(chan struct{})
	var once sync.Once
	s.Run(Func(func(ctx *Ctx) {
		home := ctx.WorkerID()
		for i := 0; i < 64; i++ {
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
		t.Fatal("no steals recorded")
	}
	if st.Steals != st.TasksStolen {
		t.Fatalf("cilk must steal one at a time: steals=%d stolen=%d", st.Steals, st.TasksStolen)
	}
}

func TestSyncGroup(t *testing.T) {
	s := newTest(t, Options{P: 4})
	var children, parent atomic.Int64
	s.Run(Func(func(ctx *Ctx) {
		var g SyncGroup
		for i := 0; i < 100; i++ {
			g.Spawn(ctx, Func(func(*Ctx) { children.Add(1) }))
		}
		g.Wait(ctx)
		if children.Load() != 100 {
			t.Errorf("sync returned with %d children done", children.Load())
		}
		parent.Add(1)
	}))
	if parent.Load() != 1 {
		t.Fatal("parent never completed")
	}
}

func TestNestedSyncGroups(t *testing.T) {
	s := newTest(t, Options{P: 4})
	var leaves atomic.Int64
	var rec func(ctx *Ctx, d int)
	rec = func(ctx *Ctx, d int) {
		if d == 0 {
			leaves.Add(1)
			return
		}
		var g SyncGroup
		g.Spawn(ctx, Func(func(c *Ctx) { rec(c, d-1) }))
		g.Spawn(ctx, Func(func(c *Ctx) { rec(c, d-1) }))
		g.Wait(ctx)
	}
	s.Run(Func(func(ctx *Ctx) { rec(ctx, 7) }))
	if got := leaves.Load(); got != 128 {
		t.Fatalf("leaves = %d, want 128", got)
	}
}

func TestP1(t *testing.T) {
	s := newTest(t, Options{P: 1})
	var ran atomic.Int64
	s.Run(Func(func(ctx *Ctx) {
		var g SyncGroup
		g.Spawn(ctx, Func(func(*Ctx) { ran.Add(1) }))
		g.Wait(ctx)
	}))
	if ran.Load() != 1 {
		t.Fatal("single-worker cilk broken")
	}
}
