package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestTaskGroupHelpsByStealing(t *testing.T) {
	// The waiter's own queue is empty (children spawned from another
	// worker's task), forcing Wait into its solo-steal helping path.
	s := newTest(t, Options{P: 4})
	var children atomic.Int64
	s.Run(Solo(func(ctx *Ctx) {
		var g TaskGroup
		for i := 0; i < 32; i++ {
			g.Go(ctx, func(c *Ctx) {
				for j := 0; j < 8; j++ {
					g.Go(c, func(*Ctx) { children.Add(1) })
				}
			})
		}
		g.Wait(ctx)
		if got := children.Load(); got != 32*8 {
			t.Errorf("children = %d, want %d", got, 32*8)
		}
	}))
}

func TestTaskGroupRejectsTeamTasks(t *testing.T) {
	s := newTest(t, Options{P: 4})
	var panicked atomic.Bool
	s.Run(Solo(func(ctx *Ctx) {
		defer func() {
			if recover() != nil {
				panicked.Store(true)
			}
		}()
		var g TaskGroup
		g.Spawn(ctx, Func(2, func(*Ctx) {}))
	}))
	if !panicked.Load() {
		t.Fatal("TaskGroup must reject multi-threaded tasks")
	}
}

func TestTaskGroupEmptyWait(t *testing.T) {
	s := newTest(t, Options{P: 2})
	s.Run(Solo(func(ctx *Ctx) {
		var g TaskGroup
		g.Wait(ctx) // empty group: returns immediately
	}))
}

func TestTaskGroupSequentialBatches(t *testing.T) {
	s := newTest(t, Options{P: 4})
	var order atomic.Int64
	var bad atomic.Int64
	s.Run(Solo(func(ctx *Ctx) {
		var g TaskGroup
		for i := 0; i < 10; i++ {
			g.Go(ctx, func(*Ctx) { order.Add(1) })
		}
		g.Wait(ctx)
		if order.Load() != 10 {
			bad.Add(1)
		}
		// Reuse the same group for a second batch.
		for i := 0; i < 10; i++ {
			g.Go(ctx, func(*Ctx) { order.Add(1) })
		}
		g.Wait(ctx)
		if order.Load() != 20 {
			bad.Add(1)
		}
	}))
	if bad.Load() != 0 {
		t.Fatal("batch boundaries violated")
	}
}

func TestTaskGroupDeeplyNested(t *testing.T) {
	s := newTest(t, Options{P: 8})
	var leaves atomic.Int64
	var rec func(c *Ctx, depth int)
	rec = func(c *Ctx, depth int) {
		if depth == 0 {
			leaves.Add(1)
			return
		}
		var g TaskGroup
		for i := 0; i < 3; i++ {
			g.Go(c, func(cc *Ctx) { rec(cc, depth-1) })
		}
		g.Wait(c)
	}
	s.Run(Solo(func(ctx *Ctx) { rec(ctx, 5) }))
	if got := leaves.Load(); got != 243 {
		t.Fatalf("leaves = %d, want 243", got)
	}
}

// TestTaskGroupReusedAcrossWorkers hands one TaskGroup down a chain of
// parents, one at a time as its rule requires: each parent joins children
// that add siblings, then spawns the next parent and holds its own worker
// until a thief has started it, so every link moves the owner to another
// worker. Under -race this is the check that owner and local are handed on
// with the task, not shared.
func TestTaskGroupReusedAcrossWorkers(t *testing.T) {
	s := newTest(t, Options{P: 4})
	const links, kids = 12, 6
	var tg TaskGroup
	var ran, bad atomic.Int64
	var parent func(i int) func(*Ctx)
	parent = func(i int) func(*Ctx) {
		return func(ctx *Ctx) {
			for k := 0; k < kids; k++ {
				tg.Go(ctx, func(c *Ctx) {
					ran.Add(1)
					tg.Go(c, func(*Ctx) { ran.Add(1) })
				})
			}
			tg.Wait(ctx)
			if ran.Load() != int64(2*kids*(i+1)) || tg.local != 0 || tg.pending.Load() != 0 || tg.owner != ctx.w {
				bad.Add(1)
			}
			if i+1 == links {
				return
			}
			var started atomic.Bool
			next := parent(i + 1)
			ctx.Spawn(Solo(func(c *Ctx) { started.Store(true); next(c) }))
			for !started.Load() { // only a thief can start it
				runtime.Gosched()
			}
		}
	}
	g := s.NewGroup()
	if err := g.Run(Solo(parent(0))); err != nil {
		t.Fatal(err)
	}
	if bad.Load() != 0 || ran.Load() != 2*kids*links {
		t.Fatalf("%d of %d links saw a wrong count; ran %d of %d", bad.Load(), links, ran.Load(), 2*kids*links)
	}
}

// TestTaskGroupSiblingOfStolenChild holds the parent until one of its
// children has run on a thief and added siblings there (on pending, away
// from the owner); the parent's Wait must cover them whether the thief or
// the owner runs them.
func TestTaskGroupSiblingOfStolenChild(t *testing.T) {
	s := newTest(t, Options{P: 4})
	const kids, sibs = 8, 4
	var ran, bad atomic.Int64
	err := s.NewGroup().Run(Solo(func(ctx *Ctx) {
		home := ctx.WorkerID()
		var tg TaskGroup
		away := make(chan struct{})
		var once sync.Once
		for k := 0; k < kids; k++ {
			tg.Go(ctx, func(c *Ctx) {
				ran.Add(1)
				for j := 0; j < sibs; j++ {
					tg.Go(c, func(*Ctx) { ran.Add(1) })
				}
				if c.WorkerID() != home {
					once.Do(func() { close(away) })
				}
			})
		}
		<-away
		tg.Wait(ctx)
		if ran.Load() != kids*(1+sibs) || tg.local != 0 || tg.pending.Load() != 0 {
			bad.Add(1)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if bad.Load() != 0 {
		t.Fatalf("Wait returned with %d of %d joined tasks run, or unfolded counts", ran.Load(), kids*(1+sibs))
	}
}
