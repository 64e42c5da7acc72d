// Package freelist recycles objects on a free list that no garbage
// collection empties.
//
// The pool of package sync drops what it holds at every collection (its
// victim cache keeps one generation), so a program that recycles per task
// through it refills its pools after each GC: the pool's chain rings,
// pinSlow and New show up in every allocation profile taken across one. A
// List keeps everything it is given until it is taken back, and holds at
// most what was once out at the same time.
//
// A List has two levels. The owner level is one bounded Stack per owner —
// a worker, in practice — touched by its owner only, so a Get or Put there
// is a plain slice operation with no lock and no atomic write. Behind it is
// the shared level: one mutex-guarded LIFO that a full stack spills to and
// an empty one refills from, Batch objects at a time, so the lock is taken
// once per Batch objects that move between owners. A miss finds the shared
// level empty with one atomic load, without the lock. Callers with no owner
// of their own (a client goroutine, a task that runs once per request) use
// the shared level alone: one lock per object.
//
// A miss returns ok = false and the caller allocates, so the allocation
// stays at the call site, where it is counted.
package freelist

import (
	"sync"
	"sync/atomic"
)

const (
	// StackCap bounds an owner stack: a Put onto a full one spills Batch
	// objects to the shared level first.
	StackCap = 64
	// Batch is the number of objects a spill or a refill moves.
	Batch = StackCap / 2
)

// List is a free list of E values, pointers in practice. The zero List is
// ready to use.
type List[E any] struct {
	mu     sync.Mutex
	shared []E          // the shared level, the object put last on top; guarded by mu
	n      atomic.Int64 // len(shared), for a miss that must not take mu
	owners atomic.Pointer[[]*owned[E]]
}

// Stack is one owner's level of a List. Only its owner touches it; the
// zero Stack is empty. A Stack embedded in its owner's own struct (a core
// worker) costs its owner no indirection; List.Get and List.Put keep one per
// owner id for callers that have no such place.
type Stack[E any] struct {
	s []E
}

// owned is a Stack of a List's owner level, alone on its cache line.
type owned[E any] struct {
	Stack[E]
	_ [40]byte
}

// Len returns the number of objects on the stack.
func (st *Stack[E]) Len() int { return len(st.s) }

// Get pops the object put on the stack last. An empty stack first refills
// from l's shared level; ok is false when that is empty too.
//
//repro:noalloc the owner level of every recycled task and node
func (st *Stack[E]) Get(l *List[E]) (x E, ok bool) {
	if k := len(st.s) - 1; k >= 0 {
		var zero E
		x, st.s[k], st.s = st.s[k], zero, st.s[:k]
		return x, true
	}
	return st.refill(l)
}

// Put pushes x, spilling Batch objects to l's shared level first if the
// stack is full.
//
//repro:noalloc the owner level of every recycled task and node
func (st *Stack[E]) Put(l *List[E], x E) {
	if len(st.s) == StackCap {
		st.spill(l)
	}
	st.s = append(st.s, x) //repro:allow capacity-bounded by StackCap; grows only until warm
}

// refill moves up to Batch objects from l's shared level onto the empty
// stack and pops one of them.
func (st *Stack[E]) refill(l *List[E]) (x E, ok bool) {
	if l.n.Load() == 0 {
		return x, false
	}
	l.mu.Lock()
	k := max(len(l.shared)-Batch, 0)
	st.s = append(st.s, l.shared[k:]...)
	clear(l.shared[k:])
	l.shared = l.shared[:k]
	l.n.Store(int64(k))
	l.mu.Unlock()
	if len(st.s) == 0 {
		return x, false // another owner emptied the level after the load
	}
	return st.Get(l)
}

// spill moves the top Batch objects of the full stack to l's shared level.
func (st *Stack[E]) spill(l *List[E]) {
	k := len(st.s) - Batch
	l.mu.Lock()
	l.shared = append(l.shared, st.s[k:]...)
	l.n.Store(int64(len(l.shared)))
	l.mu.Unlock()
	clear(st.s[k:])
	st.s = st.s[:k]
}

// Get takes an object from owner id's stack (see Stack.Get). An id is an
// owner only while one goroutine at a time uses it — a worker id of one
// scheduler; a negative id takes from the shared level.
func (l *List[E]) Get(id int) (E, bool) {
	if id < 0 {
		return l.GetShared()
	}
	return l.owner(id).Get(l)
}

// Put gives x back to owner id's stack (see Stack.Put); a negative id puts
// it on the shared level.
func (l *List[E]) Put(id int, x E) {
	if id < 0 {
		l.PutShared(x)
		return
	}
	l.owner(id).Put(l, x)
}

// GetShared takes the object put on the shared level last; ok is false when
// the level is empty.
func (l *List[E]) GetShared() (x E, ok bool) {
	if l.n.Load() == 0 {
		return x, false
	}
	l.mu.Lock()
	if k := len(l.shared) - 1; k >= 0 {
		var zero E
		x, l.shared[k], l.shared, ok = l.shared[k], zero, l.shared[:k], true
		l.n.Store(int64(k))
	}
	l.mu.Unlock()
	return x, ok
}

// PutShared puts x on the shared level.
func (l *List[E]) PutShared(x E) {
	l.mu.Lock()
	l.shared = append(l.shared, x)
	l.n.Store(int64(len(l.shared)))
	l.mu.Unlock()
}

// SharedLen returns the number of objects on the shared level.
func (l *List[E]) SharedLen() int { return int(l.n.Load()) }

// owner returns the stack of owner id, growing the owner level to hold it on
// the id's first use. The level is copied on growth, its stacks are not:
// an owner keeps its stack whatever ids join later.
func (l *List[E]) owner(id int) *Stack[E] {
	if o := l.owners.Load(); o != nil && id < len(*o) {
		return &(*o)[id].Stack
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var o []*owned[E]
	if p := l.owners.Load(); p != nil {
		o = *p
	}
	if id >= len(o) {
		o = append(o[:len(o):len(o)], make([]*owned[E], id+1-len(o))...)
		for i := range o {
			if o[i] == nil {
				o[i] = new(owned[E])
			}
		}
		l.owners.Store(&o)
	}
	return &o[id].Stack
}
