package core

import (
	"context"
	"errors"
	"sync"

	"repro/internal/stats"
	"repro/internal/trace"
)

// This file implements group cancellation. A client that gives up — a
// dropped connection, a passed deadline, an abandoned batch — must be able
// to get its admitted work back out of the scheduler instead of letting
// workers burn CPU on answers nobody reads. A deadline is a context's:
// BindContext(context.WithDeadline(…)) is the one way to give a group one.
//
// The mechanism is a per-group cancellation epoch. Every entry admitted
// through the inject path is stamped with its group's epoch at admission
// time (enqueueLocked); Cancel bumps the epoch under the admission lock, so
// a take that observes a stale stamp knows the entry was admitted before the
// cancel and revokes it: the task completes without ever executing — an
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

// Typed cancellation errors. Group.Cancel(nil) and a bound context canceled
// without a passed deadline record ErrCanceled; a bound context whose
// deadline passed records ErrDeadlineExceeded; a custom cause is returned
// verbatim by Wait/WaitErr and the blocking spawn forms.
var (
	// ErrCanceled reports that the group was canceled with no specific cause.
	ErrCanceled = errors.New("core: group canceled")
	// ErrDeadlineExceeded reports that the deadline of the group's bound
	// context passed.
	ErrDeadlineExceeded = errors.New("core: group deadline exceeded")
)

// Cancel cancels the group: admitted-but-not-yet-started tasks are revoked
// as workers reach them (never executed; counted as stats.Revoked),
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

// cancel is Cancel recording the cancel as kind.
func (g *Group) cancel(cause error, kind trace.Kind) bool {
	if cause == nil {
		cause = ErrCanceled
	}
	g.cancelMu.Lock()
	defer g.cancelMu.Unlock()
	if g.epoch.Load()&1 == 1 {
		return false // already canceled; first cause wins
	}
	// The cause is published by the epoch bump below: it is written before
	// the bump, and readers look at it only after observing an odd epoch, so
	// the atomic add orders the pair.
	g.cause = cause
	s := g.s
	s.admitMu.Lock()
	// Bump under admitMu: admission (enqueueLocked) stamps entry epochs and
	// takeInjected compares them under the same lock, so every entry is
	// either stamped before the cancel (and revoked at take) or refused
	// after it — no admit/cancel race can leak an unrevokable entry.
	g.epoch.Add(1)
	s.admit[stats.Canceled].Add(1)
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

// BindContext ties the group's cancellation to ctx: when ctx is canceled or
// its deadline passes, the group is canceled with ErrCanceled or
// ErrDeadlineExceeded respectively, traced as EvGroupCancel or
// EvDeadlineFire. It is the group's only deadline. It returns a stop
// function releasing the watcher goroutine; call it (idempotent) once the
// group's work is done. The watcher ends only on ctx or on stop — Shutdown
// does not end it — so a binding that is never stopped lives as long as
// ctx. Once stop has returned the watcher has exited, so no cancel from ctx
// reaches the group any more — in particular none reaches its next era after
// a Reset. A context that can never be canceled costs nothing.
func (g *Group) BindContext(ctx context.Context) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	if err := ctx.Err(); err != nil {
		g.cancelFrom(err)
		return func() {}
	}
	b := &binding{g: g, ctx: ctx, stopCh: make(chan struct{})}
	b.exited.Add(1)
	go b.watch()
	return b.stop
}

// binding is one BindContext watcher's state, in one allocation.
type binding struct {
	g      *Group
	ctx    context.Context
	stopCh chan struct{}
	once   sync.Once
	exited sync.WaitGroup
}

func (b *binding) watch() {
	defer b.exited.Done()
	select {
	case <-b.ctx.Done():
		b.g.cancelFrom(b.ctx.Err())
	case <-b.stopCh:
	}
}

// stop releases the watcher and returns once it has exited: a watcher that
// saw ctx.Done has finished its cancel by then.
func (b *binding) stop() {
	b.once.Do(func() { close(b.stopCh) })
	b.exited.Wait()
}

// cancelFrom cancels the group for a bound context that ended with err.
func (g *Group) cancelFrom(err error) {
	cause, kind := ErrCanceled, trace.EvGroupCancel
	if errors.Is(err, context.DeadlineExceeded) {
		cause, kind = ErrDeadlineExceeded, trace.EvDeadlineFire
	}
	g.cancel(cause, kind)
}

// Canceled reports whether the group has been canceled (Cancel or a bound
// context). One atomic load; safe from anywhere.
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

// Reset starts a new era of the group: a canceled group returns to live so
// it can be reused for new work, and the group draws a fresh trace id, so
// the Chrome export shows each era as its own span. The caller must hold the
// group exclusively: quiescent (Wait returned) with no concurrent spawns,
// waits, or cancels — the same single-client contract that reusing a group
// after Wait already requires; a BindContext watcher must have been stopped.
// Nodes stamped in the canceled era are still revoked after Reset (the
// take-time comparison is full epoch equality, so the bumped-live epoch does
// not resurrect them).
func (g *Group) Reset() {
	g.cancelMu.Lock()
	// Exclusive by contract: no concurrent spawner, waiter, or canceler
	// exists, so the check-then-add and the plain cause store cannot race.
	if g.epoch.Load()&1 == 1 {
		g.epoch.Add(1)
		g.cause = nil
	}
	g.gid = g.s.groupSeq.Add(1)
	g.cancelMu.Unlock()
}

// Canceled reports whether the running task's group has been canceled: the
// cooperative cancellation check. Long-running tasks poll it at recursion
// and spawn points and return early — one atomic load, cheap enough for the
// hot path.
//
//repro:noalloc polled at the recursion points of every sort kernel
func (c *Ctx) Canceled() bool { return c.group.Canceled() }
