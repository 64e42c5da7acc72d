package stats

import (
	"fmt"
	"sync/atomic"
)

// Admission holds the scheduler-level counters of the admission-controlled
// external submission path (internal/core's per-group inject queues with
// optional backpressure bounds). One instance is owned by the scheduler;
// counters are written under the admission lock but read concurrently, so
// all fields are atomic.
type Admission struct {
	Injected      atomic.Int64 // external tasks admitted into inject queues
	Taken         atomic.Int64 // admitted tasks moved onto worker queues
	Revoked       atomic.Int64 // admitted tasks revoked at take time (group canceled)
	Rejected      atomic.Int64 // tasks refused: ErrSaturated (non-blocking spawns) or a canceled group (any spawn)
	BlockedSpawns atomic.Int64 // blocking spawn calls that had to park for room
	Canceled      atomic.Int64 // group cancellations (Cancel, or a bound context canceled or past its deadline)
	SpawnTimeouts atomic.Int64 // blocking spawns that returned ErrDeadlineExceeded
	PeakPending   atomic.Int64 // high-water mark of pending injected tasks
}

// AdmissionSnapshot is a plain-value copy of the admission counters.
// Pending is derived: tasks admitted but neither taken by a worker nor
// revoked at take time (tasks abandoned in the queues by Shutdown remain
// counted).
type AdmissionSnapshot struct {
	Injected      int64
	Taken         int64
	Revoked       int64
	Pending       int64
	Rejected      int64
	BlockedSpawns int64
	Canceled      int64
	SpawnTimeouts int64
	PeakPending   int64
}

// Snapshot returns a consistent-enough copy for reporting (individual loads
// are atomic; the set is not a single atomic snapshot).
func (a *Admission) Snapshot() AdmissionSnapshot {
	inj, tk, rv := a.Injected.Load(), a.Taken.Load(), a.Revoked.Load()
	return AdmissionSnapshot{
		Injected:      inj,
		Taken:         tk,
		Revoked:       rv,
		Pending:       inj - tk - rv,
		Rejected:      a.Rejected.Load(),
		BlockedSpawns: a.BlockedSpawns.Load(),
		Canceled:      a.Canceled.Load(),
		SpawnTimeouts: a.SpawnTimeouts.Load(),
		PeakPending:   a.PeakPending.Load(),
	}
}

// String renders the snapshot on one line.
func (s AdmissionSnapshot) String() string {
	return fmt.Sprintf("injected=%d taken=%d revoked=%d pending=%d rejected=%d blocked=%d canceled=%d spawn_timeouts=%d peak_pending=%d",
		s.Injected, s.Taken, s.Revoked, s.Pending, s.Rejected, s.BlockedSpawns,
		s.Canceled, s.SpawnTimeouts, s.PeakPending)
}
