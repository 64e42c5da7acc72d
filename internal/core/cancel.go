package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// This file implements group cancellation and deadlines. A client that gives
// up — a dropped connection, a passed deadline, an abandoned batch — must be
// able to get its admitted work back out of the scheduler instead of letting
// workers burn CPU on answers nobody reads.
//
// The mechanism is a per-group cancellation epoch. Every node admitted
// through the inject path is stamped with its group's epoch at admission
// time (enqueueLocked); Cancel bumps the epoch under the admission lock, so
// a take that observes a stale stamp knows the node was admitted before the
// cancel and revokes it: the node is recycled without ever executing — an
// instant completion on its group's in-flight count (see finishRevoke in
// admission.go). Already-running tasks are not interrupted —
// Go cannot preempt a task safely — but observe Ctx.Canceled cooperatively
// at their recursion points. Blocking spawns parked on admission
// backpressure wake on cancel with the typed cause, so a deadline bounds
// not only execution but also the time spent waiting for admission room.
//
// The epoch is even while the group is live and odd once canceled; Reset
// bumps it back to even so reused groups revoke any stragglers stamped in
// the canceled era (the comparison at take time is full equality, not the
// parity bit).

// Typed cancellation errors. Group.Cancel(nil) records ErrCanceled; a fired
// Deadline records ErrDeadlineExceeded; a custom cause is returned verbatim
// by Wait/WaitErr and the blocking spawn forms.
var (
	// ErrCanceled reports that the group was canceled with no specific cause.
	ErrCanceled = errors.New("core: group canceled")
	// ErrDeadlineExceeded reports that the group's deadline passed.
	ErrDeadlineExceeded = errors.New("core: group deadline exceeded")
)

// Cancel cancels the group: admitted-but-not-yet-started tasks are revoked
// as workers reach them (never executed; observable as repro_revoked_total),
// parked blocking spawns of this group wake and return the cause, new
// submissions are refused with the cause, and running tasks observe
// Ctx.Canceled. cause may be nil, recording ErrCanceled. Cancel returns true
// if this call canceled the group, false if it was already canceled (the
// first cause wins). It is safe for concurrent use and never blocks on task
// execution.
//
// Cancellation does not interrupt running tasks — a canceled group still
// needs its Wait to drain the tasks that had already started (they should
// notice Ctx.Canceled and return early); Wait does not run new ones.
func (g *Group) Cancel(cause error) bool {
	return g.cancel(cause, trace.EvGroupCancel)
}

func (g *Group) cancel(cause error, kind trace.Kind) bool {
	if cause == nil {
		cause = ErrCanceled
	}
	g.cancelMu.Lock()
	defer g.cancelMu.Unlock()
	if g.epoch.Load()&1 == 1 {
		return false // already canceled; first cause wins
	}
	if g.timer != nil {
		g.timer.Stop()
		g.timer = nil
	}
	// The cause is published by the epoch bump below: it is written before
	// the bump, and readers look at it only after observing an odd epoch, so
	// the atomic add orders the pair.
	g.cause = cause
	s := g.s
	s.admitMu.Lock()
	// Bump under admitMu: admission (enqueueLocked) stamps node epochs and
	// takeInjected compares them under the same lock, so every node is
	// either stamped before the cancel (and revoked at take) or refused
	// after it — no admit/cancel race can leak an unrevokable node.
	g.epoch.Add(1)
	s.admit.Canceled.Add(1)
	if xt := s.xt; xt.Enabled() {
		// Admission ring (ring P): owned by the admitMu holder, like
		// enqueueLocked's events.
		xt.Record(s.topo.P, kind, 0, uint32(g.gid), 0)
	}
	if s.admitWaiters > 0 {
		s.admitCond.Broadcast() // wake this group's parked spawners
	}
	s.admitMu.Unlock()
	return true
}

// Deadline arms (or re-arms) the group's deadline: at t the group is
// canceled with ErrDeadlineExceeded, exactly as if Cancel had been called.
// A deadline already in the past cancels immediately. Arming a deadline on
// a canceled group is a no-op; re-arming replaces the previous timer.
func (g *Group) Deadline(t time.Time) {
	d := time.Until(t)
	g.cancelMu.Lock()
	if g.epoch.Load()&1 == 1 {
		g.cancelMu.Unlock()
		return
	}
	if g.timer != nil {
		g.timer.Stop()
		g.timer = nil
	}
	if d > 0 {
		g.timer = time.AfterFunc(d, g.deadlineFire)
		g.cancelMu.Unlock()
		return
	}
	g.cancelMu.Unlock()
	g.deadlineFire()
}

func (g *Group) deadlineFire() {
	g.cancel(ErrDeadlineExceeded, trace.EvDeadlineFire)
}

// BindContext ties the group's cancellation to ctx: when ctx is canceled or
// its deadline passes, the group is canceled with ErrCanceled or
// ErrDeadlineExceeded respectively. It returns a stop function releasing
// the watcher goroutine; call it (idempotent) once the group's work is done.
// A context that can never be canceled costs nothing.
func (g *Group) BindContext(ctx context.Context) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	if err := ctx.Err(); err != nil {
		g.Cancel(bindCause(err))
		return func() {}
	}
	stopCh := make(chan struct{})
	var stopped atomic.Bool // authoritative: once stop returns, no cancel fires
	go func() {
		select {
		case <-ctx.Done():
			// Re-check the flag: when ctx.Done and stopCh are both ready the
			// select picks arbitrarily, but a stop that returned before the
			// context was canceled must win.
			if !stopped.Load() {
				g.Cancel(bindCause(ctx.Err()))
			}
		case <-stopCh:
		case <-g.s.doneCh:
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			stopped.Store(true)
			close(stopCh)
		})
	}
}

func bindCause(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return ErrDeadlineExceeded
	}
	return ErrCanceled
}

// Canceled reports whether the group has been canceled (Cancel, a fired
// Deadline, or a bound context). One atomic load; safe from anywhere.
func (g *Group) Canceled() bool {
	return g.epoch.Load()&1 == 1
}

// Err returns the cancellation cause — ErrCanceled, ErrDeadlineExceeded, or
// the error given to Cancel — or nil while the group is live.
func (g *Group) Err() error {
	if g.epoch.Load()&1 == 0 {
		return nil
	}
	// Safe plain read: the cause is written before the epoch goes odd, and
	// the atomic epoch load above observed the odd value.
	return g.cause
}

// WaitErr waits like Wait, then reports how the group ended: nil for a
// clean drain, the cancellation cause for a canceled group (its started
// tasks have drained; its never-started tasks were revoked), or ErrShutdown
// when the scheduler shut down with the group's tasks still in flight.
func (g *Group) WaitErr() error {
	g.Wait()
	if err := g.Err(); err != nil {
		return err
	}
	if g.s.done.Load() && g.inflight.Load() != 0 {
		return ErrShutdown
	}
	return nil
}

// Reset returns a canceled group to live so it can be reused for new work.
// The caller must hold the group exclusively: quiescent (Wait returned) with
// no concurrent spawns, waits, or cancels — the same single-client contract
// that reusing a group after Wait already requires. Nodes stamped in the
// canceled era are still revoked after Reset (the take-time comparison is
// full epoch equality, so the bumped-live epoch does not resurrect them).
func (g *Group) Reset() {
	g.cancelMu.Lock()
	if g.timer != nil {
		g.timer.Stop()
		g.timer = nil
	}
	// Exclusive by contract: no concurrent spawner, waiter, or canceler
	// exists, so the check-then-add and the plain cause store cannot race.
	if g.epoch.Load()&1 == 1 {
		g.epoch.Add(1)
		g.cause = nil
	}
	g.cancelMu.Unlock()
}

// Canceled reports whether the running task's group has been canceled: the
// cooperative cancellation check. Long-running tasks poll it at recursion
// and spawn points and return early — one atomic load, cheap enough for the
// hot path. Group-less tasks are never canceled.
//
//repro:noalloc polled at the recursion points of every sort kernel
func (c *Ctx) Canceled() bool { return c.group.Canceled() }
