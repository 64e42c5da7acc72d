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
// pays two (the slot, then bottom; a third when the ring grows), PopBottom
// one (bottom, which must be visible before top is read), plus a CAS on top
// and a second bottom store when it takes the last element. Loads are plain
// MOVs.
//
// The deque stores pointers *T. A nil return means the deque was empty (or
// the element was lost to a concurrent thief).
package deque

import "sync/atomic"

// ring is a circular array of capacity 2^k. Elements are stored through
// atomic pointers because a thief may read a slot while the owner overwrites
// it after wrap-around; the top CAS validates the read.
type ring[T any] struct {
	mask int64
	buf  []atomic.Pointer[T]
}

func newRing[T any](capacity int64) *ring[T] {
	return &ring[T]{mask: capacity - 1, buf: make([]atomic.Pointer[T], capacity)}
}

func (r *ring[T]) load(i int64) *T     { return r.buf[i&r.mask].Load() }
func (r *ring[T]) store(i int64, v *T) { r.buf[i&r.mask].Store(v) }
func (r *ring[T]) cap() int64          { return r.mask + 1 }
func (r *ring[T]) grow(top, bot int64) *ring[T] {
	n := newRing[T](r.cap() * 2)
	for i := top; i < bot; i++ {
		n.store(i, r.load(i))
	}
	return n
}

// MinCapacity is the initial capacity of a Deque.
const MinCapacity = 64

// Deque is a Chase–Lev work-stealing deque of *T. The zero value is not
// ready for use; call New.
type Deque[T any] struct {
	top    atomic.Int64
	bottom atomic.Int64
	arr    atomic.Pointer[ring[T]]
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
	a.store(b, v)
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
	v := a.load(b)
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
func (d *Deque[T]) PopTop() *T {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil
	}
	a := d.arr.Load()
	v := a.load(t)
	if !d.top.CompareAndSwap(t, t+1) {
		return nil
	}
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
