// Package reg implements the packed registration structure of the
// team-building work-stealer (Wimmer & Träff §3) and the rules that change
// it.
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
//
// The rules are pure methods that return the next word; the caller CASes it
// in, so a model and the scheduler apply the same code. A word the scheduler
// writes keeps 1 ≤ t ≤ a ≤ r.
//
//	Register    a ← a+1, by a thread the advertisement wants: "a single
//	            extra atomic compare-and-swap instruction per thread joining
//	            a team" (§1)
//	Deregister  a ← a−1, by a registrant outside the fixed team ("We are in
//	            our current coordinator's team and therefore can't drop out",
//	            Algorithm 9)
//	Advertise   r ← n; a smaller r also revokes, as Reset does: "we have to
//	            reset [a] to the number of teamed threads and increment the
//	            new counter N to ensure that no invalid thread has registered"
//	Fix         t ← a, once a = r: the single CAS that fixes the team
//	Reset       r, a, t ← k and N ← N+1: disband, conflict-yield and the
//	            revoke for an r = 1 task (k = 1; "the team will dissolve ...
//	            as soon as the current coordinator's queue runs empty"),
//	            preempt (k = t), shrink (k = the smaller size)
//
// Wants and Holds read a word for one worker, and Beats is Lemma 3's
// conflict rule between two coordinators.
package reg

import (
	"fmt"
	"sync/atomic"

	"repro/internal/topo"
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

// Register counts one more registrant; ok is false when the word advertises
// for nobody (r ≤ 1) or is full (a = r).
func (r R) Register() (R, bool) {
	ok := r.Req > 1 && r.Acq < r.Req
	r.Acq++
	return r, ok
}

// Deregister takes back one registration of the current epoch.
func (r R) Deregister() R {
	r.Acq--
	return r
}

// Advertise asks for n threads. Growing keeps every registration; shrinking
// revokes the ones outside the team, which may lie outside the smaller block.
func (r R) Advertise(n int) R {
	if n < int(r.Req) {
		r = r.Reset(int(r.Team))
	}
	r.Req = uint16(n)
	return r
}

// Fix fixes the team at the acquired count; ok is false until a = r.
func (r R) Fix() (R, bool) {
	r.Team = r.Acq
	return r, r.Acq >= r.Req
}

// Reset makes the word a fixed team of k and revokes every registration
// beyond it.
func (r R) Reset(k int) R {
	return R{Req: uint16(k), Acq: uint16(k), Team: uint16(k), Epoch: r.Epoch + 1}
}

// Wants reports whether coordinator c, whose word is r, still needs worker w:
// it advertises, is not full, and its block of r ids contains w.
func (r R) Wants(c, w int) bool {
	_, ok := r.Register()
	return ok && topo.Overlap(c, w, int(r.Req))
}

// Holds reports whether worker w belongs to coordinator c's fixed team: the
// t ids of c's block.
func (r R) Holds(c, w int) bool {
	return r.Team > 1 && topo.Overlap(c, w, int(r.Team))
}

// Beats is Lemma 3's conflict rule. Worker w, helping coordinator c gather
// need threads, meets coordinator x whose word is r; Beats reports whether
// w must leave c for x. The smaller task wins when it needs w; on equal sizes
// inside one block the smaller coordinator id wins.
func (r R) Beats(x, c, w, need int) bool {
	n := int(r.Req)
	if n == need {
		return x < c && topo.Overlap(x, c, need)
	}
	return n > 1 && n < need && topo.Overlap(x, w, n)
}

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
