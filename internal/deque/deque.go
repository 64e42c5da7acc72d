// Package deque implements the lock-free double-ended work-stealing queue
// used by all schedulers in this repository.
//
// The implementation follows the dynamic circular work-stealing deque of
// Chase & Lev ("Dynamic circular work-stealing deque", SPAA 2005), which is
// the standard realization of the Arora–Blumofe–Plaxton deque the paper
// assumes (§2: "queues are assumed to be implemented in a lock/wait-free
// manner"). Thieves pop from the top with a single CAS. The owner needs no
// CAS in the common case, but Go has no release-only store, so every
// atomic store is sequentially consistent (an XCHG on amd64): PushBottom
// pays one, the bottom publish (plus arr when the ring grows, and the slot
// while a thief is in flight), PopBottom one (bottom, which must be visible
// before top is read), plus a CAS on top and a second bottom store when it
// takes the last element. Loads are plain MOVs. A PopTop that finds the
// deque non-empty pays, besides its CAS, two XADDs on the count of thieves
// in flight; one that finds it empty writes nothing.
//
// # Plain slot stores
//
// In the C11 proof of Chase–Lev (Lê, Pop, Cohen & Zappa Nardelli, "Correct
// and efficient work-stealing for weak memory models", PPoPP 2013) the
// owner's store into the ring is relaxed, ordered by the release store of
// bottom that follows it. Go has neither a relaxed nor a release store, so
// the owner stores a slot with a plain write, and atomically only while a
// thief is in flight:
//
//   - PopTop checks top < bottom read-only, then raises stealing, loads top,
//     bottom and the slot (atomically), CASes top and lowers stealing.
//   - PushBottom loads bottom (b), then top (t0), then stealing. If the count
//     is zero it writes slot b plainly, else atomically; then it stores
//     bottom = b+1. The ring holds fewer than cap elements once the push has
//     passed its grow check, so b−cap < t0.
//   - grow fills the new ring with plain stores before arr publishes it.
//
// Every thief's slot read R and every plain owner write W of the same slot
// of the same ring are ordered by happens-before, so the deque is race-free
// in Go's memory model, not merely benign. The owner loaded a zero count, so
// for each thief either its decrement came before that load in the order of
// stealing's operations, and then R happens before W; or its increment came
// after the load. Then the thief's loads of top and bottom come after the
// owner's loads of them. It read top t ≥ t0 > b−cap, and either bottom = b,
// so t < b and slot t is not slot b, or a bottom the owner stored after W,
// so W happens before R. A plain write can therefore meet a thief's read only
// after the ring has wrapped, and only if that thief is still counted —
// when the owner writes atomically. TestSteadyDepthWrap holds a MinCapacity
// ring at near-full depth against concurrent thieves, where a plain store in
// place of the atomic one is a race the detector reports.
//
// The deque stores pointers *T. A nil return means the deque was empty (or
// the element was lost to a concurrent thief).
package deque

import (
	"sync/atomic"
	"unsafe"
)

// ring is a circular array of capacity 2^k. The owner writes and reads its
// slots plainly (an atomic write while a thief is in flight); thieves read
// them atomically. The top CAS validates a thief's read.
type ring[T any] struct {
	mask int64
	buf  []*T
}

func newRing[T any](capacity int64) *ring[T] {
	return &ring[T]{mask: capacity - 1, buf: make([]*T, capacity)}
}

func (r *ring[T]) cap() int64 { return r.mask + 1 }

// slot is the address of slot i in the form sync/atomic's pointer functions
// take. load and storeAtomic are the repository's only function-style
// sync/atomic calls: a typed atomic.Pointer would make every access atomic,
// and the owner's plain store is what this package is built around.
func (r *ring[T]) slot(i int64) *unsafe.Pointer {
	return (*unsafe.Pointer)(unsafe.Pointer(&r.buf[i&r.mask]))
}

// load is a thief's read of slot i.
func (r *ring[T]) load(i int64) *T { return (*T)(atomic.LoadPointer(r.slot(i))) }

// storeAtomic is the owner's write of slot i while a thief is in flight.
func (r *ring[T]) storeAtomic(i int64, v *T) { atomic.StorePointer(r.slot(i), unsafe.Pointer(v)) }

func (r *ring[T]) grow(top, bot int64) *ring[T] {
	n := newRing[T](r.cap() * 2)
	for i := top; i < bot; i++ {
		n.buf[i&n.mask] = r.buf[i&r.mask]
	}
	return n
}

// MinCapacity is the initial capacity of a Deque.
const MinCapacity = 64

// Deque is a Chase–Lev work-stealing deque of *T. The zero value is not
// ready for use; call New.
type Deque[T any] struct {
	top atomic.Int64
	// stealing counts the thieves between their top load and their CAS. It
	// sits beside top, whose line PushBottom loads anyway.
	stealing atomic.Int64
	bottom   atomic.Int64
	arr      atomic.Pointer[ring[T]]
}

// New returns an empty deque.
func New[T any]() *Deque[T] {
	d := &Deque[T]{}
	d.arr.Store(newRing[T](MinCapacity))
	return d
}

// PushBottom appends v at the bottom. Owner-only.
func (d *Deque[T]) PushBottom(v *T) {
	b := d.bottom.Load()
	t := d.top.Load()
	a := d.arr.Load()
	if b-t >= a.cap() {
		a = a.grow(t, b)
		d.arr.Store(a)
	}
	if d.stealing.Load() == 0 {
		a.buf[b&a.mask] = v
	} else {
		a.storeAtomic(b, v)
	}
	d.bottom.Store(b + 1)
}

// PopBottom removes and returns the bottom element, or nil if the deque is
// empty or the last element was lost to a concurrent thief. Owner-only.
//
// The popped slot keeps its pointer until the ring wraps around and
// overwrites it, as a slot vacated by a thief always has: a thief cannot
// clear (after its winning top CAS the owner may already be overwriting the
// slot), so retention is the element owner's to prevent — by clearing what
// the element references once it has taken it (internal/core's freeNode,
// internal/classic's run), not by a store per pop here.
//
//repro:noalloc the owner's pop runs once per task; internal/core instantiates it, so its build reports this body's escapes
func (d *Deque[T]) PopBottom() *T {
	b := d.bottom.Load() - 1
	a := d.arr.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Empty: restore the canonical empty state.
		d.bottom.Store(t)
		return nil
	}
	v := a.buf[b&a.mask]
	if t == b {
		// Last element: race with thieves via CAS on top.
		if !d.top.CompareAndSwap(t, t+1) {
			v = nil // a thief got it
		}
		d.bottom.Store(t + 1)
	}
	return v
}

// PopTop steals the top element, or returns nil if the deque is empty or the
// CAS lost a race. Safe for concurrent use by any number of thieves.
//
// The first check writes nothing, so an idle probe costs two loads; past
// it the thief is counted in stealing until after its CAS, and it reloads
// top and bottom, since the owner may have wrapped the ring plainly since
// the first loads (package doc).
//
//repro:noalloc every steal attempt runs it
func (d *Deque[T]) PopTop() *T {
	if d.top.Load() >= d.bottom.Load() {
		return nil
	}
	d.stealing.Add(1)
	var v *T
	if t, b := d.top.Load(), d.bottom.Load(); t < b {
		v = d.arr.Load().load(t)
		if !d.top.CompareAndSwap(t, t+1) {
			v = nil
		}
	}
	d.stealing.Add(-1)
	return v
}

// Size returns an estimate of the number of elements. It is exact when
// called by the owner with no concurrent thieves.
func (d *Deque[T]) Size() int {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// Empty reports whether the deque appears empty.
func (d *Deque[T]) Empty() bool { return d.Size() == 0 }

// Steal implements the paper's popappend() (Algorithm 4, with the §4
// refinement that the last stolen task is returned directly instead of being
// enqueued, so it cannot be stolen back). It transfers up to max elements
// from the top of victim to the bottom of dst, in order, returning the last
// stolen element (to be executed immediately by the thief) and the total
// number of elements stolen including the returned one.
//
// Must be called by the owner of dst; victim may be under concurrent attack
// by other thieves.
func Steal[T any](victim, dst *Deque[T], max int) (last *T, n int) {
	for n < max {
		v := victim.PopTop()
		if v == nil {
			return last, n
		}
		if last != nil {
			dst.PushBottom(last)
		}
		last = v
		n++
	}
	return last, n
}
