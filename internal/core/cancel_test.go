package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
)

// plugWorkers occupies every worker of s with a task blocked on the returned
// release channel, so subsequently admitted work stays in the inject queue.
func plugWorkers(t *testing.T, s *Scheduler) (plug *Group, release chan struct{}) {
	t.Helper()
	release = make(chan struct{})
	plug = s.NewGroup()
	var running sync.WaitGroup
	for i := 0; i < s.P(); i++ {
		running.Add(1)
		if err := plug.Spawn(Solo(func(*Ctx) { running.Done(); <-release })); err != nil {
			t.Fatalf("plug spawn: %v", err)
		}
	}
	running.Wait()
	return plug, release
}

// TestCancelRevokesPending is the tentpole's acceptance test: flood a group
// with admitted-but-not-started tasks, cancel it, and check that every one
// of them is revoked at take time without executing, that the revocations
// are observable in the admission counters, that the group's inflight
// reconciles to zero, and that every Wait releases.
func TestCancelRevokesPending(t *testing.T) {
	s := New(Options{P: 2})
	defer s.Shutdown()
	plug, release := plugWorkers(t, s)

	before := s.Admission()
	g := s.NewGroup()
	var ran atomic.Int64
	const flood = 64
	for i := 0; i < flood; i++ {
		if err := g.TrySpawn(Solo(func(*Ctx) { ran.Add(1) })); err != nil {
			t.Fatalf("flood spawn %d: %v", i, err)
		}
	}

	cause := errors.New("client gave up")
	if !g.Cancel(cause) {
		t.Fatal("Cancel returned false on a live group")
	}
	if g.Cancel(errors.New("second cause")) {
		t.Fatal("second Cancel returned true")
	}
	if !g.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
	if err := g.Err(); !errors.Is(err, cause) {
		t.Fatalf("Err() = %v, want the first cause", err)
	}

	// Several concurrent waiters: all must release exactly once the revoked
	// flood has drained.
	const waiters = 4
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() { errs <- g.WaitErr() }()
	}

	close(release)
	plug.Wait()
	for i := 0; i < waiters; i++ {
		if err := <-errs; !errors.Is(err, cause) {
			t.Fatalf("WaitErr = %v, want cause", err)
		}
	}

	if n := ran.Load(); n != 0 {
		t.Fatalf("%d canceled tasks executed, want 0", n)
	}
	if p := g.Pending(); p != 0 {
		t.Fatalf("group Pending = %d after drain, want 0", p)
	}
	if p := s.Pending(); p != 0 {
		t.Fatalf("scheduler Pending = %d after drain, want 0", p)
	}
	adm := s.Admission()
	if got := adm[stats.Revoked] - before[stats.Revoked]; got != flood {
		t.Fatalf("Revoked delta = %d, want %d", got, flood)
	}
	if adm[stats.Injected] != adm[stats.Taken]+adm[stats.Revoked] {
		t.Fatalf("admission does not reconcile: %+v", adm)
	}
}

// TestCancelRejectsNewSpawns checks the admission half of cancellation:
// every spawn form on a canceled group refuses with the cancellation cause
// and counts as rejected, and nothing it refused is accounted.
func TestCancelRejectsNewSpawns(t *testing.T) {
	s := New(Options{P: 2})
	defer s.Shutdown()
	g := s.NewGroup()
	cause := errors.New("done with this")
	g.Cancel(cause)

	if err := g.Spawn(Solo(func(*Ctx) { t.Error("spawned on canceled group") })); !errors.Is(err, cause) {
		t.Fatalf("Spawn = %v, want cause", err)
	}
	if err := g.TrySpawn(Solo(func(*Ctx) {})); !errors.Is(err, cause) {
		t.Fatalf("TrySpawn = %v, want cause", err)
	}
	if n, err := g.TrySpawnBatch([]Task{Solo(func(*Ctx) {}), Solo(func(*Ctx) {})}); n != 0 || !errors.Is(err, cause) {
		t.Fatalf("TrySpawnBatch = (%d, %v), want (0, cause)", n, err)
	}
	if err := g.WaitErr(); !errors.Is(err, cause) {
		t.Fatalf("WaitErr = %v, want cause", err)
	}
	if g.Pending() != 0 || s.Pending() != 0 {
		t.Fatalf("refused spawns were accounted: group=%d sched=%d", g.Pending(), s.Pending())
	}
}

// TestDeadlineCancelsGroup checks that a bound context's deadline in the
// past cancels at once and a future one fires on time, both with
// ErrDeadlineExceeded.
func TestDeadlineCancelsGroup(t *testing.T) {
	s := New(Options{P: 2})
	defer s.Shutdown()

	past, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	g := s.NewGroup()
	defer g.BindContext(past)()
	if !g.Canceled() {
		t.Fatal("past deadline did not cancel immediately")
	}
	if err := g.Err(); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("Err = %v, want ErrDeadlineExceeded", err)
	}

	future, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(10*time.Millisecond))
	defer cancel2()
	g2 := s.NewGroup()
	defer g2.BindContext(future)()
	deadline := time.Now().Add(5 * time.Second)
	for !g2.Canceled() {
		if time.Now().After(deadline) {
			t.Fatal("future deadline never fired")
		}
		time.Sleep(time.Millisecond)
	}
	if err := g2.WaitErr(); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("WaitErr = %v, want ErrDeadlineExceeded", err)
	}
}

// TestDeadlineUnblocksParkedSpawn is the bounded-blocking-admission
// acceptance: a Spawn parked on a full inject queue must wake when the
// deadline of its group's bound context passes and return
// ErrDeadlineExceeded (typed, counted).
func TestDeadlineUnblocksParkedSpawn(t *testing.T) {
	s := New(Options{P: 2, MaxInject: 1})
	defer s.Shutdown()
	plug, release := plugWorkers(t, s)
	defer func() { close(release); plug.Wait() }()

	filler := s.NewGroup()
	if err := filler.TrySpawn(Solo(func(*Ctx) {})); err != nil {
		t.Fatalf("filler: %v", err)
	}

	before := s.Admission()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	g := s.NewGroup()
	defer g.BindContext(ctx)()
	start := time.Now()
	err := g.Spawn(Solo(func(*Ctx) { t.Error("parked task ran after deadline") }))
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("parked Spawn = %v after %v, want ErrDeadlineExceeded", err, time.Since(start))
	}
	if got := s.Admission()[stats.SpawnTimeouts] - before[stats.SpawnTimeouts]; got != 1 {
		t.Fatalf("SpawnTimeouts delta = %d, want 1", got)
	}
	if g.Pending() != 0 {
		t.Fatalf("timed-out spawn was accounted: %d", g.Pending())
	}
}

// TestBindContext checks context plumbing: cancellation and deadline causes
// map to the group's typed errors, stop detaches the watcher, and the
// degenerate contexts are free.
func TestBindContext(t *testing.T) {
	s := New(Options{P: 2})
	defer s.Shutdown()

	// Background context: no-op (Done() == nil), group stays live.
	g := s.NewGroup()
	stop := g.BindContext(context.Background())
	stop()
	if g.Canceled() {
		t.Fatal("Background context canceled the group")
	}

	// Canceled context at bind time: immediate cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g2 := s.NewGroup()
	defer g2.BindContext(ctx)()
	if !g2.Canceled() || !errors.Is(g2.Err(), ErrCanceled) {
		t.Fatalf("pre-canceled ctx: Canceled=%v Err=%v", g2.Canceled(), g2.Err())
	}

	// Live context canceled later: watcher propagates ErrCanceled.
	ctx3, cancel3 := context.WithCancel(context.Background())
	g3 := s.NewGroup()
	defer g3.BindContext(ctx3)()
	cancel3()
	waitCanceled(t, g3)
	if err := g3.Err(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("ctx cancel mapped to %v, want ErrCanceled", err)
	}

	// Context deadline: mapped to ErrDeadlineExceeded.
	ctx4, cancel4 := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel4()
	g4 := s.NewGroup()
	defer g4.BindContext(ctx4)()
	waitCanceled(t, g4)
	if err := g4.Err(); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("ctx deadline mapped to %v, want ErrDeadlineExceeded", err)
	}

	// Stopped watcher: a later ctx cancel must not touch the group.
	ctx5, cancel5 := context.WithCancel(context.Background())
	g5 := s.NewGroup()
	stop5 := g5.BindContext(ctx5)
	stop5()
	stop5() // idempotent
	cancel5()
	time.Sleep(5 * time.Millisecond)
	if g5.Canceled() {
		t.Fatal("stopped BindContext watcher still canceled the group")
	}
}

// TestCancelNotAfterStop: BindContext's stop returns only once the watcher
// has exited, so a context canceled concurrently with stop either cancels
// the group before stop returns or not at all. A late cancel would land in
// the group's next era — another client's request, once groups are pooled.
// Each round cancels the context and stops the binding at once, then lets
// the cancel and any straggling watcher run before checking that the
// group's state did not move after stop returned.
func TestCancelNotAfterStop(t *testing.T) {
	s := newTest(t, Options{P: 1})
	g := s.NewGroup()
	for i := 0; i < 10000; i++ {
		g.Reset()
		ctx, cancel := context.WithCancel(context.Background())
		stop := g.BindContext(ctx)
		canceled := make(chan struct{})
		go func() { cancel(); close(canceled) }()
		stop()
		was := g.Canceled()
		<-canceled
		runtime.Gosched()
		if g.Canceled() != was {
			t.Fatalf("round %d: the context canceled the group after stop returned", i)
		}
	}
}

func waitCanceled(t *testing.T, g *Group) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !g.Canceled() {
		if time.Now().After(deadline) {
			t.Fatal("group never observed cancellation")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestGroupReset checks reuse: Reset on a canceled (drained) group clears
// the cause and makes the group spawnable again, and nodes admitted in the
// canceled era are still revoked after the Reset (full-epoch comparison,
// not parity).
func TestGroupReset(t *testing.T) {
	s := New(Options{P: 2})
	defer s.Shutdown()
	plug, release := plugWorkers(t, s)

	g := s.NewGroup()
	var ran atomic.Int64
	const flood = 8
	for i := 0; i < flood; i++ {
		if err := g.TrySpawn(Solo(func(*Ctx) { ran.Add(1) })); err != nil {
			t.Fatalf("flood: %v", err)
		}
	}
	g.Cancel(errors.New("era one"))
	// Reset while the canceled-era nodes are still parked in the inject
	// queue: they must NOT be resurrected by the new epoch.
	g.Reset()
	if g.Canceled() || g.Err() != nil {
		t.Fatalf("after Reset: Canceled=%v Err=%v", g.Canceled(), g.Err())
	}

	var ran2 atomic.Int64
	if err := g.Spawn(Solo(func(*Ctx) { ran2.Add(1) })); err != nil {
		t.Fatalf("spawn after Reset: %v", err)
	}

	close(release)
	plug.Wait()
	if err := g.WaitErr(); err != nil {
		t.Fatalf("WaitErr after Reset = %v, want nil", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d canceled-era tasks executed after Reset, want 0", ran.Load())
	}
	if ran2.Load() != 1 {
		t.Fatalf("post-Reset task ran %d times, want 1", ran2.Load())
	}
}

// TestRunReturnsCause checks the one-call form: Run on a group canceled
// mid-flight returns the cause from WaitErr.
func TestRunReturnsCause(t *testing.T) {
	s := New(Options{P: 2})
	defer s.Shutdown()
	g := s.NewGroup()
	cause := errors.New("abandoned")
	err := g.Run(Solo(func(c *Ctx) {
		g.Cancel(cause)
		if !c.Canceled() {
			t.Error("Ctx.Canceled() = false inside a canceled group's task")
		}
	}))
	if !errors.Is(err, cause) {
		t.Fatalf("Run = %v, want cause", err)
	}
}

// TestCanceledGroupDoesNotStarveOthers floods and cancels one group while a
// second group's ordinary work proceeds: the victim's Wait must release
// promptly even though the canceled flood shares the inject queue. Runs
// under the race gate via scripts/check.sh.
func TestCanceledGroupDoesNotStarveOthers(t *testing.T) {
	s := New(Options{P: 4, MaxInject: 64})
	defer s.Shutdown()

	var stop atomic.Bool
	flooder := make(chan struct{})
	go func() {
		defer close(flooder)
		for !stop.Load() {
			g := s.NewGroup()
			for i := 0; i < 32; i++ {
				if g.TrySpawn(Solo(func(*Ctx) {})) != nil {
					break
				}
			}
			g.Cancel(ErrCanceled)
			g.Wait()
		}
	}()

	for round := 0; round < 50; round++ {
		victim := s.NewGroup()
		var ran atomic.Int64
		const tasks = 16
		for i := 0; i < tasks; i++ {
			if err := victim.Spawn(Solo(func(*Ctx) { ran.Add(1) })); err != nil {
				t.Fatalf("victim spawn: %v", err)
			}
		}
		if err := victim.WaitErr(); err != nil {
			t.Fatalf("victim WaitErr = %v", err)
		}
		if ran.Load() != tasks {
			t.Fatalf("victim ran %d/%d tasks", ran.Load(), tasks)
		}
	}
	stop.Store(true)
	<-flooder
	if adm := s.Admission(); adm[stats.Injected] != adm[stats.Taken]+adm[stats.Revoked] {
		t.Fatalf("admission does not reconcile: %+v", adm)
	}
}

// FuzzCancel drives a random schedule of spawns, cancels, bound context
// deadlines and resets against one group and checks the structural
// invariants: WaitErr agrees with the group's canceled state, inflight
// reconciles to zero, no task of a canceled epoch runs after its cancel was
// observed pre-spawn, and the admission counters balance. Wired into
// scripts/fuzz-smoke.sh via auto-discovery.
func FuzzCancel(f *testing.F) {
	f.Add([]byte{0x01, 0x40, 0x02, 0x03}, uint8(2))
	f.Add([]byte{0x10, 0x11, 0x12, 0x13, 0x05, 0x20}, uint8(4))
	f.Add([]byte{0xff, 0x00, 0xfe, 0x01, 0x07}, uint8(1))
	f.Fuzz(func(t *testing.T, ops []byte, pByte uint8) {
		p := int(pByte)%4 + 1
		s := New(Options{P: p, MaxInject: 16, MaxPendingPerGroup: 8})
		defer s.Shutdown()
		g := s.NewGroup()
		cause := errors.New("fuzz cancel")
		var stops []func() // BindContext stops and context cancels
		stopAll := func() {
			for _, stop := range stops {
				stop()
			}
			stops = stops[:0]
		}
		defer stopAll()
		for _, op := range ops {
			switch op % 5 {
			case 0:
				g.TrySpawn(Solo(func(*Ctx) {}))
			case 1:
				g.TrySpawnBatch([]Task{Solo(func(*Ctx) {}), Solo(func(*Ctx) {})})
			case 2:
				g.Cancel(cause)
			case 3:
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(op)*time.Microsecond)
				stops = append(stops, g.BindContext(ctx), cancel)
			case 4:
				if g.Canceled() {
					g.Wait()
					stopAll() // Reset requires every watcher stopped
					g.Reset()
				}
			}
		}
		// A fuzzed deadline may fire at any point around WaitErr, so the
		// verdict is bracketed: canceled before ⇒ an error, an error ⇒
		// canceled after.
		before := g.Canceled()
		err := g.WaitErr()
		after := g.Canceled()
		if before && err == nil {
			t.Fatal("canceled group WaitErr = nil")
		}
		if err != nil && !after {
			t.Fatalf("live group WaitErr = %v", err)
		}
		if g.Pending() != 0 {
			t.Fatalf("group Pending = %d after WaitErr", g.Pending())
		}
		if s.Pending() != 0 {
			t.Fatalf("scheduler Pending = %d after drain", s.Pending())
		}
		if adm := s.Admission(); adm[stats.Injected] != adm[stats.Taken]+adm[stats.Revoked] {
			t.Fatalf("admission does not reconcile: %+v", adm)
		}
	})
}
