// Package reg implements the packed registration structure of the
// team-building work-stealer (Wimmer & Träff §3).
//
// Each worker owns one registration word R with four 16-bit fields, all
// updated together by a single 64-bit compare-and-swap:
//
//	r — threads required by the task currently being coordinated
//	a — threads acquired (registered) for the team, including the coordinator
//	t — threads teamed up (fixed team size), including the coordinator
//	N — epoch counter, incremented whenever registrations are revoked
//
// The paper packs the fields exactly this way ("The full registration
// structure can be packed into a 64-bit integer ... by assigning 16 bits to
// each field").
package reg

import (
	"fmt"
	"sync/atomic"
)

// R is the unpacked registration structure.
type R struct {
	Req   uint16 // r: required threads for the coordinated task
	Acq   uint16 // a: acquired (registered) threads, coordinator included
	Team  uint16 // t: teamed threads, coordinator included
	Epoch uint16 // N: revocation counter (wraps; only equality is used)
}

// Idle is the registration state of a worker that is not coordinating any
// multi-threaded task: a team of one (itself).
func Idle(epoch uint16) R { return R{Req: 1, Acq: 1, Team: 1, Epoch: epoch} }

// Pack packs r into a single 64-bit word.
func Pack(r R) uint64 {
	return uint64(r.Req) | uint64(r.Acq)<<16 | uint64(r.Team)<<32 | uint64(r.Epoch)<<48
}

// unpack is the inverse of Pack.
func unpack(w uint64) R {
	return R{
		Req:   uint16(w),
		Acq:   uint16(w >> 16),
		Team:  uint16(w >> 32),
		Epoch: uint16(w >> 48),
	}
}

// String formats the registration structure for traces and tests.
func (r R) String() string {
	return fmt.Sprintf("{r:%d a:%d t:%d N:%d}", r.Req, r.Acq, r.Team, r.Epoch)
}

// Word is an atomically accessed registration word. The zero value is
// all-zero and must be initialized with Store(Idle(0)) before use.
type Word struct {
	w atomic.Uint64
}

// Load returns the current registration structure.
func (w *Word) Load() R { return unpack(w.w.Load()) }

// Store unconditionally overwrites the word. Owner-only, and only safe when
// no concurrent registrations are possible (e.g. during initialization).
func (w *Word) Store(r R) { w.w.Store(Pack(r)) }

// CAS atomically replaces old with new, returning whether it succeeded.
// This is the single extra CAS per joining thread that the paper advertises.
func (w *Word) CAS(old, new R) bool {
	return w.w.CompareAndSwap(Pack(old), Pack(new))
}
