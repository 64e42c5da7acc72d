package core

import "sync"

// quiesce is the parking facility behind Scheduler.Wait and Group.Wait:
// instead of spinning on a counter with backoff (which burns CPU
// proportional to the number of idle waiting clients), a waiter obtains the
// current generation's channel with gate() and parks on it; the goroutine
// that observes the zero transition closes the channel with release().
// Waiters always re-check their condition after gate() and loop after
// waking, so a release racing with registration, or a count that rises
// again after a zero transition (group reuse), only costs a spurious
// wakeup, never a hang.
type quiesce struct {
	mu sync.Mutex
	ch chan struct{}
}

// gate returns a channel that will be closed at the next zero transition
// (or has already been closed, if release ran since gate).
func (z *quiesce) gate() chan struct{} {
	z.mu.Lock()
	if z.ch == nil {
		z.ch = make(chan struct{})
	}
	ch := z.ch
	z.mu.Unlock()
	return ch
}

// release wakes every parked waiter by closing the current channel, if one
// exists, and reports whether one did. The next gate() starts a fresh
// generation.
func (z *quiesce) release() bool {
	z.mu.Lock()
	woke := z.ch != nil
	if woke {
		close(z.ch)
		z.ch = nil
	}
	z.mu.Unlock()
	return woke
}
