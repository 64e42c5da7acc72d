// Package teamsync provides synchronization primitives for threads executing
// a data-parallel task as a team: a phase-counting barrier and a fan-in
// countdown.
//
// A team in the Wimmer–Träff scheduler is a set of r consecutively numbered
// workers that start a task together. Within the task they communicate
// through shared state of the task object; the primitives here cover the
// common patterns (barrier between phases of the data-parallel partitioning
// step, waiting for the last of n shares); reductions over per-member slots
// are internal/par's.
//
// Nothing here sleeps on a timer: after the spin and yield rounds of
// backoff.Pause a waiter parks on a wake.Slot, and the arrival that ends the
// wait — the last one at a barrier, the Done that reaches zero — wakes it.
package teamsync

import (
	"sync/atomic"

	"repro/internal/backoff"
	"repro/internal/wake"
)

// sleeping is the one kind of sleeper this package's own slots see.
const sleeping = 1

// Phaser is the arithmetic of a reusable barrier for a fixed number of
// participants, without a place to sleep: internal/core embeds it and parks
// and wakes the participants itself. It counts phases rather than reversing
// a sense flag, so any number of phases needs no reinitialization.
type Phaser struct {
	n     int32
	count atomic.Int32
	phase atomic.Uint32
}

// Init sets up a zero Phaser for n participants (n ≥ 1).
func (b *Phaser) Init(n int) {
	if n < 1 {
		panic("teamsync: barrier size must be ≥ 1")
	}
	b.n = int32(n)
	b.count.Store(int32(n))
}

// N returns the number of participants.
func (b *Phaser) N() int { return int(b.n) }

// Arrive counts the caller into the current phase and returns that phase and
// the number of participants still missing. At zero the caller was the last:
// the next phase is open and the sleepers are its to wake. Everybody else
// waits for Passed(phase).
//
//repro:noalloc every team phase goes through it
func (b *Phaser) Arrive() (phase uint32, missing int) {
	phase = b.phase.Load()
	missing = int(b.count.Add(-1))
	if missing == 0 {
		b.count.Store(b.n)
		b.phase.Add(1) // release
	}
	return phase, missing
}

// Passed reports whether every participant has arrived for phase.
func (b *Phaser) Passed(phase uint32) bool { return b.phase.Load() != phase }

// Barrier is a Phaser with slots of its own, for participants that are plain
// goroutines.
type Barrier struct {
	Phaser
	// Two banks of n−1, alternating with the phase, indexed by arrival
	// order: phase p's sleepers are out before phase p+1 can complete.
	slots []wake.Slot
}

// NewBarrier returns a barrier for n participants (n ≥ 1).
func NewBarrier(n int) *Barrier {
	b := &Barrier{}
	b.Init(n)
	b.slots = make([]wake.Slot, 2*(n-1))
	for i := range b.slots {
		b.slots[i].Init()
	}
	return b
}

// Wait blocks until all n participants have called Wait for the current
// phase. The last arriving participant releases the others and returns true;
// everyone else returns false.
//
//repro:noalloc the slots are NewBarrier's; a Wait allocates nothing
func (b *Barrier) Wait() bool {
	p, k := b.Arrive()
	bank := b.slots[int(p&1)*int(b.n-1):][:b.n-1]
	if k == 0 {
		for i := range bank {
			bank[i].Wake(sleeping)
		}
		return true
	}
	var bo backoff.Backoff
	for s := &bank[k-1]; !b.Passed(p); {
		if !bo.Pause() {
			s.Arm(sleeping)
			s.Settle(sleeping, b.Passed(p), nil)
		}
	}
	return false
}

// Counter is a simple atomic countdown used for fan-in ("all threads have
// deposited their blocks") without the full release semantics of a barrier.
// One goroutine at a time may wait for it.
type Counter struct {
	c    atomic.Int32
	slot wake.Slot // the waiter's; its channel exists only once somebody slept
}

// NewCounter returns a countdown initialized to n.
func NewCounter(n int) *Counter {
	c := &Counter{}
	c.c.Store(int32(n))
	return c
}

// Done decrements the counter and reports whether it reached zero, in which
// case it also releases the waiter.
func (c *Counter) Done() bool {
	if c.c.Add(-1) != 0 {
		return false
	}
	c.slot.Wake(sleeping)
	return true
}

// WaitZero blocks until the counter reaches zero.
func (c *Counter) WaitZero() {
	var bo backoff.Backoff
	for c.c.Load() > 0 {
		if !bo.Pause() {
			c.slot.Arm(sleeping)
			c.slot.Settle(sleeping, c.c.Load() <= 0, nil)
		}
	}
}
