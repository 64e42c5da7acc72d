package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
)

// label returns a solo task that appends id to *order when run.
func label(order *[]int, id int) Task {
	return Solo(func(*Ctx) { *order = append(*order, id) })
}

// drainOne takes one injected task and runs it, returning false when the
// inject queues are empty. Whitebox: drives the single worker by hand.
func drainOne(s *Scheduler, w *worker) bool {
	if !s.takeInjected(w) {
		return false
	}
	w.runSolo(w.queues[0].PopBottom())
	return true
}

// TestWBInjectGroupFIFO pins strict FIFO within one group's inject queue.
func TestWBInjectGroupFIFO(t *testing.T) {
	s := stopped(2)
	w := s.workers[0]
	g := s.NewGroup()
	var order []int
	for i := 0; i < 5; i++ {
		g.Spawn(label(&order, i))
	}
	if got := g.PendingInjected(); got != 5 {
		t.Fatalf("PendingInjected = %d, want 5", got)
	}
	for drainOne(s, w) {
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("drain order %v not FIFO", order)
		}
	}
	if g.Pending() != 0 || g.PendingInjected() != 0 || s.PendingInjected() != 0 {
		t.Fatalf("residue after drain: pending=%d injected=%d global=%d",
			g.Pending(), g.PendingInjected(), s.PendingInjected())
	}
}

// TestWBInjectRoundRobin pins the cross-group drain order: one task per
// non-empty group per round, in ring order, regardless of how lopsided the
// queues are. Group A floods 4 tasks, B has 2, C has 1; the drain must
// interleave A0 B0 C0 A1 B1 A2 A3.
func TestWBInjectRoundRobin(t *testing.T) {
	s := stopped(2)
	w := s.workers[0]
	ga, gb, gc := s.NewGroup(), s.NewGroup(), s.NewGroup()
	var order []int
	for i := 0; i < 4; i++ {
		ga.Spawn(label(&order, 100+i))
	}
	gb.SpawnBatch([]Task{label(&order, 200), label(&order, 201)})
	gc.Spawn(label(&order, 300))
	for drainOne(s, w) {
	}
	want := []int{100, 200, 300, 101, 201, 102, 103}
	if len(order) != len(want) {
		t.Fatalf("drained %d tasks, want %d (%v)", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("drain order = %v, want %v", order, want)
		}
	}
}

// TestWBInjectRefillGoesToBack checks that a group that drains and refills
// re-enters the round-robin ring at the back: a chatty group cannot camp at
// the front of the rotation.
func TestWBInjectRefillGoesToBack(t *testing.T) {
	s := stopped(2)
	w := s.workers[0]
	ga, gb := s.NewGroup(), s.NewGroup()
	var order []int
	ga.Spawn(label(&order, 1))
	gb.Spawn(label(&order, 2))
	drainOne(s, w) // takes ga's only task; ga leaves the ring
	ga.Spawn(label(&order, 3))
	ga.Spawn(label(&order, 4))
	// Ring is now [gb, ga]: gb's task must come out before ga's refill.
	for drainOne(s, w) {
	}
	want := []int{1, 2, 3, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("drain order = %v, want %v", order, want)
		}
	}
}

// TestWBInjectQueueCompacts pins the memory bound of a queue that never
// fully drains: a group oscillating between refill and take (the steady
// state of a bounded long-lived server) must not grow its backing array by
// one retired slot per task ever admitted.
func TestWBInjectQueueCompacts(t *testing.T) {
	s := stopped(2)
	w := s.workers[0]
	g := s.NewGroup()
	nop := Solo(func(*Ctx) {})
	g.Spawn(nop) // keep the queue permanently non-empty
	for i := 0; i < 100_000; i++ {
		g.Spawn(nop)
		if !s.takeInjected(w) {
			t.Fatal("takeInjected found nothing")
		}
		w.queues[0].PopBottom() // keep the worker queue flat
	}
	if c := cap(g.iq.es); c > 4096 {
		t.Fatalf("inject queue backing array grew to cap %d despite compaction", c)
	}
	if p := g.iq.pending(); p != 1 {
		t.Fatalf("pending = %d, want 1", p)
	}
}

// TestWBAdmissionBudget drives the bounds by hand: per-group budget
// exhaustion, the global MaxInject cap across groups, ErrSaturated from the
// non-blocking forms, and release of room when a worker takes a task.
func TestWBAdmissionBudget(t *testing.T) {
	s := build(Options{P: 2, MaxPendingPerGroup: 2, MaxInject: 3})
	w := s.workers[0]
	g1, g2 := s.NewGroup(), s.NewGroup()
	nop := func() Task { return Solo(func(*Ctx) {}) }

	if err := g1.TrySpawn(nop()); err != nil {
		t.Fatalf("first TrySpawn: %v", err)
	}
	if err := g1.TrySpawn(nop()); err != nil {
		t.Fatalf("second TrySpawn: %v", err)
	}
	// g1 is at its per-group budget.
	if err := g1.TrySpawn(nop()); !errors.Is(err, ErrSaturated) {
		t.Fatalf("over per-group budget: err = %v, want ErrSaturated", err)
	}
	if got := s.Admission()[stats.Rejected]; got != 1 {
		t.Fatalf("Rejected = %d, want 1", got)
	}
	// g2 has its own budget, but the global bound leaves only one slot.
	if err := g2.TrySpawn(nop()); err != nil {
		t.Fatalf("g2 first TrySpawn: %v", err)
	}
	if err := g2.TrySpawn(nop()); !errors.Is(err, ErrSaturated) {
		t.Fatalf("over MaxInject: err = %v, want ErrSaturated", err)
	}
	if got := s.PendingInjected(); got != 3 {
		t.Fatalf("PendingInjected = %d, want 3", got)
	}
	// A worker taking one task frees exactly one slot.
	if !s.takeInjected(w) {
		t.Fatal("takeInjected found nothing")
	}
	if err := g2.TrySpawn(nop()); err != nil {
		t.Fatalf("TrySpawn after release: %v", err)
	}
	// TrySpawnBatch admits the prefix that fits and reports the overflow.
	n, err := g2.TrySpawnBatch([]Task{nop(), nop(), nop()})
	if n != 0 || !errors.Is(err, ErrSaturated) {
		t.Fatalf("TrySpawnBatch full = (%d, %v), want (0, ErrSaturated)", n, err)
	}
	for s.takeInjected(w) {
	}
	n, err = g2.TrySpawnBatch([]Task{nop(), nop(), nop()})
	if n != 2 || !errors.Is(err, ErrSaturated) {
		t.Fatalf("TrySpawnBatch partial = (%d, %v), want (2, ErrSaturated)", n, err)
	}
	snap := s.Admission()
	if snap[stats.PeakPending] > 3 {
		t.Fatalf("PeakPending = %d exceeds MaxInject 3", snap[stats.PeakPending])
	}
	if snap.Pending() != snap[stats.Injected]-snap[stats.Taken] {
		t.Fatalf("inconsistent snapshot: %v", snap)
	}
}

// TestAdmissionBoundHolds is the acceptance property live: with clients ≫ P
// flooding one bounded scheduler, the number of pending injected tasks
// never exceeds MaxInject (checked via the PeakPending high-water mark) and
// every admitted task still runs.
func TestAdmissionBoundHolds(t *testing.T) {
	const (
		bound   = 8
		clients = 16
		each    = 50
	)
	s := newTest(t, Options{P: 2, MaxInject: bound, MaxPendingPerGroup: 2})
	var ran atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := s.NewGroup()
			for i := 0; i < each; i++ {
				g.Spawn(Solo(func(*Ctx) { ran.Add(1) }))
			}
			g.Wait()
			if p := g.Pending(); p != 0 {
				t.Errorf("group pending = %d after Wait", p)
			}
		}()
	}
	wg.Wait()
	if got := ran.Load(); got != clients*each {
		t.Fatalf("ran %d tasks, want %d", got, clients*each)
	}
	snap := s.Admission()
	if snap[stats.PeakPending] > bound {
		t.Fatalf("PeakPending = %d exceeds MaxInject %d", snap[stats.PeakPending], bound)
	}
	if snap[stats.Injected] != clients*each || snap[stats.Taken] != clients*each || snap.Pending() != 0 {
		t.Fatalf("admission flow inconsistent: %v", snap)
	}
	if snap[stats.BlockedSpawns] == 0 {
		t.Fatal("expected at least one blocked spawn under a bound this tight")
	}
}

// TestAdmissionGroupFairness is the 2-group acceptance property: group B's
// modest batch completes promptly although group A flooded hundreds of
// tasks into the inject path first — round-robin draining keeps B's Wait
// from being starved by A's backlog.
func TestAdmissionGroupFairness(t *testing.T) {
	s := newTest(t, Options{P: 1}) // one worker: injection order is execution order
	const flood = 600
	var aDone, bDone atomic.Int64
	ga, gb := s.NewGroup(), s.NewGroup()
	for i := 0; i < flood; i++ {
		ga.Spawn(Solo(func(*Ctx) {
			time.Sleep(50 * time.Microsecond)
			aDone.Add(1)
		}))
	}
	const bTasks = 10
	for i := 0; i < bTasks; i++ {
		gb.Spawn(Solo(func(*Ctx) { bDone.Add(1) }))
	}
	done := make(chan int64)
	go func() {
		gb.Wait()
		done <- aDone.Load()
	}()
	select {
	case aAtB := <-done:
		// With strict FIFO draining, B's last task would sit behind all of
		// A's flood (~30ms of sleeps on the single worker). Round-robin
		// interleaves B within A's first ~bTasks+1 tasks.
		if aAtB > flood/2 {
			t.Fatalf("B finished only after %d/%d of A's flood — starved", aAtB, flood)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("gb.Wait starved by ga's flood:\n%s", s.DumpState())
	}
	ga.Wait()
	if aDone.Load() != flood || bDone.Load() != bTasks {
		t.Fatalf("aDone=%d bDone=%d", aDone.Load(), bDone.Load())
	}
}

// TestAdmissionBlockedSpawnWokenByShutdown checks the close-vs-ingress
// race: a spawner parked on a full inject queue must return (dropping its
// task without accounting it) when the scheduler shuts down underneath it.
func TestAdmissionBlockedSpawnWokenByShutdown(t *testing.T) {
	s := New(Options{P: 1, MaxInject: 1})
	block := make(chan struct{})
	g := s.NewGroup()
	g.Spawn(Solo(func(*Ctx) { <-block })) // occupies the only worker
	for g.PendingInjected() != 0 {        // wait until the worker picked it up
		time.Sleep(time.Millisecond)
	}
	g.Spawn(Solo(func(*Ctx) {})) // fills the inject bound
	parked := make(chan struct{})
	go func() {
		g.Spawn(Solo(func(*Ctx) {})) // must park: no room
		close(parked)
	}()
	select {
	case <-parked:
		t.Fatal("third spawn did not block on a full inject queue")
	case <-time.After(50 * time.Millisecond):
	}
	// Initiate Shutdown while the worker is still stuck in the first task:
	// the parked spawner must be woken by Shutdown's broadcast, not by
	// capacity freeing up (the worker cannot drain anything yet).
	sdDone := make(chan struct{})
	go func() { s.Shutdown(); close(sdDone) }()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked spawn not woken by Shutdown")
	}
	close(block)
	<-sdDone
	if got := s.Admission()[stats.Injected]; got > 2 {
		t.Fatalf("dropped spawn was admitted anyway: injected = %d", got)
	}
}

// TestWaitParksAndWakes exercises the notification path of Group.Wait and
// WaitErr with many concurrent waiters parked on one slow task: all of them
// must wake on completion (not rely on each other's spinning).
func TestWaitParksAndWakes(t *testing.T) {
	s := newTest(t, Options{P: 2})
	release := make(chan struct{})
	g := s.NewGroup()
	g.Spawn(Solo(func(*Ctx) { <-release }))
	const waiters = 16
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				g.Wait()
			} else if err := g.WaitErr(); err != nil {
				t.Error(err)
			}
		}(i)
	}
	woke := make(chan struct{})
	go func() { wg.Wait(); close(woke) }()
	select {
	case <-woke:
		t.Fatal("Wait returned while the task was still blocked")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-woke:
	case <-time.After(10 * time.Second):
		t.Fatalf("waiters not woken on quiescence:\n%s", s.DumpState())
	}
	// The group is reusable: a second cycle must park and wake again.
	release2 := make(chan struct{})
	g.Spawn(Solo(func(*Ctx) { <-release2 }))
	again := make(chan struct{})
	go func() { g.Wait(); close(again) }()
	select {
	case <-again:
		t.Fatal("reused group's Wait returned early")
	case <-time.After(50 * time.Millisecond):
	}
	close(release2)
	select {
	case <-again:
	case <-time.After(10 * time.Second):
		t.Fatal("reused group's waiter not woken")
	}
}

// FuzzAdmission fuzzes the admission invariants: random client counts,
// per-client task counts and bound configurations, mixing blocking and
// non-blocking spawns. However the flood interleaves, pending injected
// tasks never exceed the configured bounds, every admitted task runs
// exactly once, and the scheduler drains to zero.
func FuzzAdmission(f *testing.F) {
	f.Add(uint8(4), uint8(20), uint8(2), uint8(6), false)
	f.Add(uint8(9), uint8(10), uint8(1), uint8(3), true)
	f.Add(uint8(2), uint8(30), uint8(0), uint8(0), false)
	f.Add(uint8(16), uint8(5), uint8(3), uint8(0), true)
	f.Fuzz(func(t *testing.T, clients, each, maxPer, maxInj uint8, useTry bool) {
		nc := 1 + int(clients)%12
		ne := int(each) % 40
		opts := Options{
			P:                  2,
			MaxPendingPerGroup: int(maxPer) % 8,
			MaxInject:          int(maxInj) % 16,
		}
		s := New(opts)
		defer s.Shutdown()
		var ran, admitted atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < nc; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				g := s.NewGroup()
				for i := 0; i < ne; i++ {
					task := Solo(func(*Ctx) { ran.Add(1) })
					if useTry && i%3 == 0 {
						if err := g.TrySpawn(task); err == nil {
							admitted.Add(1)
						} else if !errors.Is(err, ErrSaturated) {
							t.Errorf("TrySpawn: %v", err)
						}
					} else {
						g.Spawn(task)
						admitted.Add(1)
					}
				}
				g.Wait()
				if p := g.Pending(); p != 0 {
					t.Errorf("group pending = %d after Wait", p)
				}
			}(c)
		}
		wg.Wait()
		if got, want := ran.Load(), admitted.Load(); got != want {
			t.Fatalf("ran %d admitted tasks, want %d", got, want)
		}
		snap := s.Admission()
		if opts.MaxInject > 0 && snap[stats.PeakPending] > int64(opts.MaxInject) {
			t.Fatalf("PeakPending = %d exceeds MaxInject %d", snap[stats.PeakPending], opts.MaxInject)
		}
		if opts.MaxInject == 0 && opts.MaxPendingPerGroup > 0 &&
			snap[stats.PeakPending] > int64(opts.MaxPendingPerGroup*nc) {
			t.Fatalf("PeakPending = %d exceeds %d groups × bound %d",
				snap[stats.PeakPending], nc, opts.MaxPendingPerGroup)
		}
		if snap[stats.Injected] != admitted.Load() || snap.Pending() != 0 {
			t.Fatalf("admission flow inconsistent: %v (admitted %d)", snap, admitted.Load())
		}
	})
}

// TestWBTrySpawnBatchPrefix pins the documented partial-admission contract
// of TrySpawnBatch: the returned count is the length of the admitted
// *prefix* — exactly tasks ts[0:n] run, in order — and the rejected suffix
// is never accounted anywhere (its nodes go straight back to the free
// lists). Whitebox: single worker driven by hand for a deterministic drain.
func TestWBTrySpawnBatchPrefix(t *testing.T) {
	s := build(Options{P: 2, MaxInject: 2})
	w := s.workers[0]
	g := s.NewGroup()
	var order []int
	batch := make([]Task, 5)
	for i := range batch {
		batch[i] = label(&order, i)
	}
	n, err := g.TrySpawnBatch(batch)
	if n != 2 || !errors.Is(err, ErrSaturated) {
		t.Fatalf("TrySpawnBatch = (%d, %v), want (2, ErrSaturated)", n, err)
	}
	// Only the prefix is accounted: the suffix must not appear in any
	// pending counter (a leak here would wedge Wait forever).
	if got := g.Pending(); got != 2 {
		t.Fatalf("group Pending = %d, want 2 (the admitted prefix)", got)
	}
	if got := s.PendingInjected(); got != 2 {
		t.Fatalf("PendingInjected = %d, want 2", got)
	}
	for drainOne(s, w) {
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("ran %v, want the prefix [0 1] in order", order)
	}
	snap := s.Admission()
	if snap[stats.Injected] != 2 || snap[stats.Rejected] != 3 || snap.Pending() != 0 {
		t.Fatalf("admission counters = %v, want injected=2 rejected=3 pending=0", snap)
	}
}

// TestWBRevokeAtTake pins the revocation interleaving deterministically:
// admit, cancel, then drive the take by hand. The node must be revoked —
// never run — and both the global and the per-group accounting must release
// on the revocation path, with the admission counters attributing the node
// to Revoked rather than Taken.
func TestWBRevokeAtTake(t *testing.T) {
	s := build(Options{P: 2})
	w := s.workers[0]
	g := s.NewGroup()
	var order []int
	g.Spawn(label(&order, 0))
	g.Spawn(label(&order, 1))
	g.Cancel(ErrCanceled)

	// takeInjected must consume the whole queue revoking (returning false:
	// it never yields a runnable task), not hand the nodes to the worker.
	if s.takeInjected(w) {
		t.Fatal("takeInjected returned true for a fully-revoked queue")
	}
	if len(order) != 0 {
		t.Fatalf("revoked tasks ran: %v", order)
	}
	if g.Pending() != 0 || s.PendingInjected() != 0 || s.Pending() != 0 {
		t.Fatalf("residue after revoke: group=%d injected=%d global=%d",
			g.Pending(), s.PendingInjected(), s.Pending())
	}
	snap := s.Admission()
	if snap[stats.Injected] != 2 || snap[stats.Taken] != 0 || snap[stats.Revoked] != 2 {
		t.Fatalf("admission counters = %v, want injected=2 taken=0 revoked=2", snap)
	}
}
