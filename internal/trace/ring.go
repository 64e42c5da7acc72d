package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultRingEvents is the per-ring capacity used when the caller does not
// choose one. At 32 bytes per slot a default ring is 256 KiB per worker —
// enough for tens of milliseconds of a busy worker's task churn.
const DefaultRingEvents = 1 << 13

// minRingEvents floors tiny capacities requested by tests.
const minRingEvents = 8

// slot is one ring entry. Every field is atomic so snapshot readers race
// with the owner's writes benignly (and cleanly under the race detector);
// the stamp makes the race detectable: it holds 2·seq+1 while the owner is
// writing sequence seq into the slot and 2·seq+2 once the slot is stable,
// so a reader that sees the same even stamp before and after copying the
// payload knows it copied a consistent event (the seqlock argument). Record
// is the stamp's only writer: TestRecordSnapshotRoundTrip fails without its
// closing store, TestConcurrentRecordSnapshot without its opening one.
type slot struct {
	stamp atomic.Uint64 // 2·seq+1 while torn, 2·seq+2 once stable
	ts    atomic.Int64
	// meta packs kind (bits 56–63), the related worker id (bits 40–55) and
	// the small payload X (bits 0–31) into one word, so recording an event
	// costs four stores besides the two stamp stores.
	meta atomic.Uint64
	arg  atomic.Uint64
}

// ring is one writer's event buffer. Only the owner (the worker with the
// matching id, or the admitMu holder for the admission ring) writes pos and
// slots; snapshot readers only load. The struct is padded to a cache line
// so adjacent rings' owner-written headers never share one: rings sit in one
// array, and TestRingPadded holds the stride to unsafe.Sizeof.
type ring struct {
	pos   atomic.Uint64 // next sequence number; slots[pos&mask] is written next
	mask  uint64
	slots []slot
	_     [64 - 8 - 8 - 24]byte
}

// dropped returns how many events have been overwritten: the ring keeps the
// most recent cap(slots) events, so everything before pos−cap is gone.
func (r *ring) dropped() uint64 {
	if pos, c := r.pos.Load(), uint64(len(r.slots)); pos > c {
		return pos - c
	}
	return 0
}

// Tracer owns one ring per writer. The zero cost when disabled is a single
// atomic bool load and a predicted branch at each record site (Enabled);
// rings are allocated lazily on the first Start, so schedulers that never
// trace never pay the buffer memory.
type Tracer struct {
	on    atomic.Bool
	names []string // per-ring display names (len(names) rings)
	cap   int      // per-ring capacity, power of two

	mu    sync.Mutex             // guards lazy ring allocation
	rings atomic.Pointer[[]ring] // nil until the first Start
}

// New returns a tracer with one ring per name (disabled, nothing
// allocated beyond the descriptor). perRing is the per-ring event capacity,
// rounded up to a power of two; 0 selects DefaultRingEvents.
func New(names []string, perRing int) *Tracer {
	if perRing <= 0 {
		perRing = DefaultRingEvents
	}
	if perRing < minRingEvents {
		perRing = minRingEvents
	}
	c := 1
	for c < perRing {
		c <<= 1
	}
	return &Tracer{names: append([]string(nil), names...), cap: c}
}

// Start enables recording, allocating the rings on first use. Restarting a
// stopped tracer resumes recording into the same rings (sequence numbers
// keep counting), so successive capture windows share one timeline.
func (t *Tracer) Start() {
	t.mu.Lock()
	if t.rings.Load() == nil {
		rs := make([]ring, len(t.names))
		for i := range rs {
			rs[i].slots = make([]slot, t.cap)
			rs[i].mask = uint64(t.cap - 1)
		}
		t.rings.Store(&rs) // publish before enabling: Record never sees nil while on
	}
	t.on.Store(true)
	t.mu.Unlock()
}

// Stop disables recording. The rings (and their events) are kept for
// snapshotting; Start resumes.
func (t *Tracer) Stop() { t.on.Store(false) }

// Enabled reports whether recording is on. Record sites guard on this; when
// it returns false the site's whole cost was this one load and branch.
func (t *Tracer) Enabled() bool { return t.on.Load() }

// Record appends one event to ring ri and returns its process-unique event
// id (the task trace id, when the event creates a task). Only the ring's
// owner may call it; the write path is allocation-free — a clock read and
// six stores to an owner-exclusive line. On overflow the oldest event is
// overwritten (drop-oldest; Snapshot reports the count).
//
//repro:noalloc documented allocation-free; fires on every traced scheduler event
func (t *Tracer) Record(ri int, k Kind, other int, x uint32, arg uint64) uint64 {
	rsp := t.rings.Load()
	if rsp == nil {
		return 0 // never started; Enabled() was false at the guard, racing Stop
	}
	r := &(*rsp)[ri]
	seq := r.pos.Load() // owner-only writer: plain read-modify-write is safe
	s := &r.slots[seq&r.mask]
	s.stamp.Store(2*seq + 1) // odd: slot torn while we write
	s.ts.Store(Now())
	s.meta.Store(uint64(k)<<56 | uint64(uint16(other))<<40 | uint64(x))
	s.arg.Store(arg)
	s.stamp.Store(2*seq + 2) // even and seq-unique: slot stable
	r.pos.Store(seq + 1)
	return eventID(ri, seq)
}

// Events returns the total number of events recorded across all rings
// (including overwritten ones).
func (t *Tracer) Events() uint64 {
	rsp := t.rings.Load()
	if rsp == nil {
		return 0
	}
	var total uint64
	for i := range *rsp {
		total += (*rsp)[i].pos.Load()
	}
	return total
}

// Dropped returns how many events of ring ri have been overwritten.
func (t *Tracer) Dropped(ri int) uint64 {
	rsp := t.rings.Load()
	if rsp == nil {
		return 0
	}
	return (*rsp)[ri].dropped()
}

// DroppedTotal returns the overwritten-event count summed over all rings.
func (t *Tracer) DroppedTotal() uint64 {
	rsp := t.rings.Load()
	if rsp == nil {
		return 0
	}
	var total uint64
	for i := range *rsp {
		total += (*rsp)[i].dropped()
	}
	return total
}

// Snapshot reads every ring without stopping the writers and returns the
// surviving events in timestamp order. Consistency per event comes from the
// slot stamps: a slot is copied, then its stamp re-checked — if the owner
// wrapped around and reused the slot mid-copy the stamp no longer matches
// the expected 2·seq+2 and the (torn) copy is discarded. An event can be
// lost to a concurrent overwrite, never corrupted.
func (t *Tracer) Snapshot() Snapshot {
	snap := Snapshot{
		Names:   append([]string(nil), t.names...),
		Dropped: make([]uint64, len(t.names)),
	}
	rsp := t.rings.Load()
	if rsp == nil {
		return snap
	}
	for ri := range *rsp {
		r := &(*rsp)[ri]
		pos := r.pos.Load()
		lo := uint64(0)
		if c := uint64(len(r.slots)); pos > c {
			lo = pos - c
		}
		snap.Dropped[ri] = lo
		for seq := lo; seq < pos; seq++ {
			s := &r.slots[seq&r.mask]
			want := 2*seq + 2
			if s.stamp.Load() != want {
				continue // mid-write or already overwritten
			}
			ts, meta, arg := s.ts.Load(), s.meta.Load(), s.arg.Load()
			if s.stamp.Load() != want {
				continue // overwritten while copying: discard the torn copy
			}
			snap.Events = append(snap.Events, Event{
				Ring:  ri,
				Seq:   seq,
				TS:    ts,
				Kind:  Kind(meta >> 56),
				Other: int(uint16(meta >> 40)),
				X:     uint32(meta),
				Arg:   arg,
			})
		}
	}
	sort.Slice(snap.Events, func(i, j int) bool {
		a, b := snap.Events[i], snap.Events[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.Ring != b.Ring {
			return a.Ring < b.Ring
		}
		return a.Seq < b.Seq
	})
	return snap
}

// Snapshot is one consistent read of a tracer's rings.
type Snapshot struct {
	Names   []string // per-ring display names
	Dropped []uint64 // per-ring events overwritten before this snapshot
	Events  []Event  // ascending timestamp (ties broken by ring, then seq)
}

// Since returns the snapshot restricted to events with TS ≥ ts — the
// bounded-window form used by the /debug/trace endpoint, which marks Now()
// before enabling capture and filters the accumulated rings down to the
// window it observed.
func (s Snapshot) Since(ts int64) Snapshot {
	out := Snapshot{Names: s.Names, Dropped: s.Dropped}
	i := sort.Search(len(s.Events), func(i int) bool { return s.Events[i].TS >= ts })
	out.Events = s.Events[i:]
	return out
}

// Text renders the snapshot as a compact line-per-event dump (TraceDump and
// the /debug/trace?format=text endpoint).
func (s Snapshot) Text() string {
	var b strings.Builder
	for i, d := range s.Dropped {
		if d > 0 {
			fmt.Fprintf(&b, "# %s: %d events dropped (ring overflow)\n", s.Names[i], d)
		}
	}
	for _, e := range s.Events {
		fmt.Fprintf(&b, "%12.6fms r%-3d %-14s other=%-3d x=%-8d arg=%#x\n",
			float64(e.TS)/1e6, e.Ring, e.Kind, e.Other, e.X, e.Arg)
	}
	return b.String()
}
