package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
)

// TestShutdownWithPendingWork verifies Shutdown returns even while tasks are
// queued or running (outstanding work is abandoned, per the documented
// contract).
func TestShutdownWithPendingWork(t *testing.T) {
	s := New(Options{P: 4})
	g := s.NewGroup()
	var started atomic.Int64
	for i := 0; i < 200; i++ {
		g.Spawn(Solo(func(*Ctx) {
			started.Add(1)
			time.Sleep(100 * time.Microsecond)
		}))
	}
	done := make(chan struct{})
	go func() {
		s.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatalf("Shutdown hung with pending work:\n%s", s.DumpState())
	}
}

// TestSpawnAfterShutdownIsNoOp pins the documented spawn-after-Shutdown
// semantics: submissions to a shut-down scheduler are dropped without ever
// being accounted, so they cannot inflate the inflight counters (which
// would make a later diagnostic Pending() read nonzero forever), and the
// non-blocking forms report ErrShutdown. Runs under the race gate: the
// spawns race nothing, but the test documents the memory-visibility
// contract (Shutdown returning happens-before the no-op guarantee).
func TestSpawnAfterShutdownIsNoOp(t *testing.T) {
	s := New(Options{P: 2})
	g := s.NewGroup()
	s.Shutdown()

	if err := g.Spawn(Solo(func(*Ctx) { t.Error("ran a task spawned after Shutdown") })); !errors.Is(err, ErrShutdown) {
		t.Fatalf("Spawn after Shutdown: err = %v, want ErrShutdown", err)
	}
	if err := g.SpawnBatch([]Task{Solo(func(*Ctx) { t.Error("ran a batch task spawned after Shutdown") })}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("SpawnBatch after Shutdown: err = %v, want ErrShutdown", err)
	}
	if err := g.TrySpawn(Solo(func(*Ctx) {})); !errors.Is(err, ErrShutdown) {
		t.Fatalf("TrySpawn after Shutdown: err = %v, want ErrShutdown", err)
	}
	if n, err := g.TrySpawnBatch([]Task{Solo(func(*Ctx) {})}); n != 0 || !errors.Is(err, ErrShutdown) {
		t.Fatalf("TrySpawnBatch after Shutdown = (%d, %v), want (0, ErrShutdown)", n, err)
	}

	if p := s.Pending(); p != 0 {
		t.Fatalf("Pending = %d after post-Shutdown spawns, want 0", p)
	}
	if p := g.Pending(); p != 0 {
		t.Fatalf("group Pending = %d after post-Shutdown spawns, want 0", p)
	}
	if snap := s.Admission(); snap[stats.Injected] != 0 {
		t.Fatalf("post-Shutdown spawn was admitted: %v", snap)
	}
	g.Wait() // returns immediately: nothing was accounted
}

// TestSpawnRacingShutdown floods spawns from several goroutines while
// Shutdown runs concurrently. Any individual spawn may be admitted or
// dropped, but the accounting must stay consistent: tasks that ran were
// admitted, and nothing hangs. Exercised under -race by the check gate.
func TestSpawnRacingShutdown(t *testing.T) {
	s := New(Options{P: 4, MaxInject: 8})
	var ran atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := s.NewGroup()
			for i := 0; i < 200; i++ {
				g.Spawn(Solo(func(*Ctx) { ran.Add(1) }))
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	s.Shutdown()
	wg.Wait() // no spawner may stay parked after Shutdown
	snap := s.Admission()
	if snap[stats.PeakPending] > 8 {
		t.Fatalf("PeakPending = %d exceeds MaxInject during shutdown race", snap[stats.PeakPending])
	}
	if ran.Load() > snap[stats.Injected] {
		t.Fatalf("ran %d tasks but only %d were admitted", ran.Load(), snap[stats.Injected])
	}
}

// TestShutdownDuringTeamGather verifies Shutdown interrupts a coordinator
// stuck gathering a team that can never complete because the other workers
// already observed the done flag.
func TestShutdownDuringTeamGather(t *testing.T) {
	s := New(Options{P: 4})
	g := s.NewGroup()
	// Keep three workers busy so a 4-team cannot form quickly, then shut
	// down while the gathering is (likely) in progress.
	block := make(chan struct{})
	for i := 0; i < 3; i++ {
		g.Spawn(Solo(func(*Ctx) { <-block }))
	}
	g.Spawn(Func(4, func(*Ctx) {}))
	time.Sleep(20 * time.Millisecond) // let the gather start
	done := make(chan struct{})
	go func() {
		close(block)
		s.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatalf("Shutdown hung during gather:\n%s", s.DumpState())
	}
}

// TestShutdownWakesEveryWaiter: Group.Wait parks on the group's gate, not on
// the shutdown channel, so Shutdown wakes it itself — every busy group's
// gate, found through the busy set. Eight groups are busy, two with a task
// held on a worker and six with their task still in the inject queue; two
// waiters parked on each of them all return within a second of Shutdown,
// while the held tasks keep Shutdown itself from finishing.
func TestShutdownWakesEveryWaiter(t *testing.T) {
	s := New(Options{P: 2})
	hold := make(chan struct{})
	var running sync.WaitGroup
	running.Add(s.P())
	groups := make([]*Group, 8)
	for i := range groups {
		groups[i] = s.NewGroup()
		task := Solo(func(*Ctx) {})
		if i < s.P() {
			task = Solo(func(*Ctx) { running.Done(); <-hold })
		}
		if err := groups[i].Spawn(task); err != nil {
			t.Fatal(err)
		}
		if i == s.P()-1 {
			running.Wait() // every worker holds a task: the rest stay queued
		}
	}
	back := make(chan struct{}, 2*len(groups))
	for _, g := range groups {
		for i := 0; i < 2; i++ {
			go func() { g.Wait(); back <- struct{}{} }()
		}
		waitGateWaiters(t, &g.qz, 2)
	}

	shut := make(chan struct{})
	go func() { s.Shutdown(); close(shut) }()
	deadline := time.After(time.Second)
	for i := 0; i < cap(back); i++ {
		select {
		case <-back:
		case <-deadline:
			t.Fatalf("%d of %d waiters returned within 1s of Shutdown", i, cap(back))
		}
	}
	close(hold)
	<-shut
	for i, g := range groups[s.P():] {
		if err := g.WaitErr(); !errors.Is(err, ErrShutdown) {
			t.Errorf("queued group %d: WaitErr = %v, want ErrShutdown", i, err)
		}
	}
}
