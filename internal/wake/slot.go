// Package wake provides the one primitive every event-driven wait of this
// repository blocks on: a slot with room for one sleeper and one token.
//
//	sleeper: Arm (store tag) → re-check the condition → Settle: claim the
//	         tag back if the condition holds already, else Sleep
//	waker:   make the condition true → Claim the tag → Signal
//
// Each side stores one word and then loads the other's, and Go's atomics are
// sequentially consistent: a waker that finds no tag made its condition true
// before the sleeper's re-check. The claim is a CAS the sleeper's own
// withdrawal competes for and it precedes the signal, so one Arm receives at
// most one token, the send never blocks, and a sleeper that lost the race
// for its tag knows its token is coming and takes it — the slot is empty
// before the next Arm. The tag names the kind of wait, so a waker claims only
// sleepers its event is for; a late waker may still claim a later wait of the
// same kind, which is why every sleeper loops on its condition.
package wake

import "sync/atomic"

// Slot is one wake slot. The zero value is ready to use; it must not be
// copied after first use, and at most one goroutine sleeps on it at a time.
type Slot struct {
	tag atomic.Uint32 // non-zero while a sleeper is announced and unclaimed
	ch  chan struct{} // capacity 1: at most one token per Arm
}

// Init allocates the token channel ahead of the first Arm, for a slot on a
// path that must not allocate.
func (s *Slot) Init() {
	if s.ch == nil {
		s.ch = make(chan struct{}, 1)
	}
}

// Arm announces the caller as a sleeper of kind tag (non-zero).
//
//repro:noalloc every park and team wait announces itself here
func (s *Slot) Arm(tag uint32) {
	s.Init()
	if !s.tag.CompareAndSwap(0, tag) {
		doubleArm()
	}
}

//go:noinline
func doubleArm() { panic("wake: slot already has a sleeper") } // out of line: keeps Arm's inlined copies allocation-free

// Tag returns the announced sleeper's kind, or 0 (racy; diagnostics).
func (s *Slot) Tag() uint32 { return s.tag.Load() }

// Claim takes the announcement of a sleeper of kind tag, if there is one. A
// waker that wins must Signal; the sleeper itself claims through Settle.
//
//repro:noalloc on every waker's path
func (s *Slot) Claim(tag uint32) bool {
	return s.tag.Load() == tag && s.tag.CompareAndSwap(tag, 0)
}

// Signal releases the sleeper whose announcement the caller claimed.
//
//repro:noalloc on every waker's path
func (s *Slot) Signal() { s.ch <- struct{}{} }

// Wake is Claim and, if it won, Signal.
//
//repro:noalloc on every waker's path
func (s *Slot) Wake(tag uint32) bool {
	won := s.Claim(tag)
	if won {
		s.Signal()
	}
	return won
}

// Settle ends an announcement with the verdict of the sleeper's re-check: it
// withdraws (false) if the condition holds and the tag is still there to be
// claimed back, and otherwise sleeps (true).
//
//repro:noalloc every park and team wait ends its announcement here
func (s *Slot) Settle(tag uint32, ready bool, stop <-chan struct{}) bool {
	if ready && s.Claim(tag) {
		return false
	}
	s.Sleep(stop)
	return true
}

// Sleep blocks the announced caller until its token arrives (true) or stop
// is closed (false; nil: never). Leaving through stop withdraws the
// announcement, or takes the token if a waker claimed it first, so the slot
// is empty again.
func (s *Slot) Sleep(stop <-chan struct{}) bool {
	select {
	case <-s.ch:
		return true
	case <-stop:
		if s.tag.Swap(0) == 0 {
			<-s.ch
		}
		return false
	}
}
