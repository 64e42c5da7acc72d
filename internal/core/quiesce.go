package core

import "sync"

// quiesce is the parking facility behind Group.Wait: instead of spinning on
// a counter with backoff (which burns CPU proportional to the number of idle
// waiting clients), a waiter re-checks its condition under mu and sleeps on
// cond; the goroutine that observes the group's zero transition, or
// Shutdown, broadcasts with release(), under the same lock. So a zero
// transition either precedes the re-check, which sees it, or its release
// finds the waiter on cond. Waiters loop on their condition, so a release
// that lands in a later wait (a count that rose again after a zero
// transition, or a reused group's lagging drain) only costs a spurious
// wake-up, never a hang. Nothing is allocated per generation: a waiter count
// tells release whether anybody sleeps.
type quiesce struct {
	mu      sync.Mutex
	cond    sync.Cond // cond.L is &mu, set by the first wait
	waiters int
}

// wait parks the caller until the next release unless done, evaluated under
// mu, reports that there is nothing to wait for.
//
//repro:noalloc every Wait that finds work in flight parks here
func (z *quiesce) wait(done func() bool) {
	z.mu.Lock()
	if !done() {
		z.cond.L = &z.mu
		z.waiters++
		z.cond.Wait()
		z.waiters--
	}
	z.mu.Unlock()
}

// release wakes every parked waiter and reports whether there was one.
//
//repro:noalloc runs at every group's drain
func (z *quiesce) release() bool {
	z.mu.Lock()
	woke := z.waiters > 0
	if woke {
		z.cond.Broadcast()
	}
	z.mu.Unlock()
	return woke
}
