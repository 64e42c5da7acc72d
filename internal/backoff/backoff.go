// Package backoff provides the escalating wait used by the schedulers'
// polling loops: a few busy-spin rounds, a few runtime.Gosched rounds, then
// exponentially growing sleeps.
//
// The paper's prototype uses exponential backoff "starting at 1 microsecond,
// and going up to 10 milliseconds" (§4) for every wait. Because our hardware
// threads are goroutines, the early rounds spin and yield to the Go runtime
// before any timed sleep, which keeps the scheduler from fighting the
// runtime's own scheduler during short waits.
//
// Who still sleeps: the waits that poll partners or have several wakers — a
// coordinator gathering its team and a registered member that is not yet
// part of a fixed team (internal/core), TaskGroup.Wait's helper loop — and
// every loop of internal/classic, the paper's baseline, which polls as the
// paper describes. They call Wait.
//
// Who no longer does: an idle worker of internal/core, and every wait
// between team-fix and disband — teamsync.Barrier and Counter, a fixed
// team's member awaiting its coordinator, the coordinator counting its
// members down. They call Pause for the spin and yield rounds only and, once
// Pause reports the budget spent, park on a wake.Slot until the one worker
// that ends the wait wakes them (internal/core/park.go, teamwait.go).
package backoff

import (
	"runtime"
	"time"
)

// The sleep bounds of §4 of the paper.
const (
	Min = 1 * time.Microsecond
	Max = 10 * time.Millisecond

	// spinRounds is the number of busy-spin iterations before yielding.
	spinRounds = 4
	// yieldRounds is the number of Gosched iterations before sleeping.
	yieldRounds = 8
)

// Backoff is a per-worker escalating wait. The zero value is ready to use.
// Not safe for concurrent use (each worker owns one).
type Backoff struct {
	n int // consecutive Pause/Wait calls since the last Reset
}

// Reset clears the backoff after successful work was found.
func (b *Backoff) Reset() { b.n = 0 }

// Attempts returns the number of consecutive waits since the last Reset.
func (b *Backoff) Attempts() int { return b.n }

// Pause performs the next spin or yield round and reports true. Once the
// spin/yield budget is exhausted it does nothing and reports false: the
// caller either sleeps (Wait) or blocks on something that wakes it.
func (b *Backoff) Pause() bool {
	switch n := b.n; {
	case n < spinRounds:
		spin(1 << uint(n+4)) // 16..128 pause iterations
	case n < spinRounds+yieldRounds:
		runtime.Gosched()
	default:
		return false
	}
	b.n++
	return true
}

// Wait blocks for the current backoff duration and escalates: the Pause
// rounds first, then exponentially growing sleeps from Min, capped at Max.
func (b *Backoff) Wait() {
	if b.Pause() {
		return
	}
	d := Min << uint(b.n-spinRounds-yieldRounds)
	if d > Max || d <= 0 {
		d = Max
	}
	b.n++
	time.Sleep(d)
}

//go:noinline
func spin(iters int) {
	for i := 0; i < iters; i++ {
		// Empty loop; noinline keeps the compiler from removing it.
	}
}
