package stats

import (
	"strconv"
	"sync/atomic"
)

// AdmissionCounter indexes the counters of Admission.
type AdmissionCounter int

const (
	Injected      AdmissionCounter = iota // external tasks admitted into inject queues
	Taken                                 // admitted tasks moved onto worker queues
	Revoked                               // admitted tasks revoked at take time (group canceled)
	Rejected                              // tasks refused: ErrSaturated (non-blocking spawns) or a canceled group (any spawn)
	BlockedSpawns                         // blocking spawn calls that had to park for room
	Canceled                              // group cancellations (Cancel, or a bound context canceled or past its deadline)
	SpawnTimeouts                         // blocking spawns that returned ErrDeadlineExceeded
	PeakPending                           // high-water mark of pending injected tasks; a gauge, not a counter
	NumAdmissionCounters
)

// AdmissionCounters describes every AdmissionCounter.
var AdmissionCounters = [NumAdmissionCounters]Desc{
	Injected:      {"injected", "repro_admission_injected_total", "External tasks admitted into the inject queues."},
	Taken:         {"taken", "repro_admission_taken_total", "Admitted tasks moved onto worker queues."},
	Revoked:       {"revoked", "repro_revoked_total", "Admitted tasks revoked at take time because their group was canceled."},
	Rejected:      {"rejected", "repro_admission_rejected_total", "Tasks refused by a non-blocking spawn (ErrSaturated or canceled group)."},
	BlockedSpawns: {"blocked_spawns", "repro_admission_blocked_spawns_total", "Blocking spawn calls that had to park for inject room."},
	Canceled:      {"canceled", "repro_canceled_total", "Group cancellations (Cancel, or a bound context canceled or past its deadline)."},
	SpawnTimeouts: {"spawn_timeouts", "repro_spawn_timeouts_total", "Blocking or retrying spawns that returned ErrDeadlineExceeded."},
	PeakPending:   {"peak_pending", "repro_admission_peak_pending", "High-water mark of pending injected tasks."},
}

// Admission holds the scheduler-level counters of the admission-controlled
// external submission path (internal/core's per-group inject queues with
// optional backpressure bounds), indexed by AdmissionCounter. One instance
// is owned by the scheduler; counters are written under the admission lock
// but read concurrently, so all of them are atomic.
type Admission [NumAdmissionCounters]atomic.Int64

// AdmissionSnapshot is a plain-value copy of the admission counters.
type AdmissionSnapshot [NumAdmissionCounters]int64

// Snapshot returns a consistent-enough copy for reporting (individual loads
// are atomic; the set is not a single atomic snapshot).
func (a *Admission) Snapshot() AdmissionSnapshot {
	var s AdmissionSnapshot
	for c := range s {
		s[c] = a[c].Load()
	}
	return s
}

// Pending is the number of tasks admitted but neither taken by a worker nor
// revoked at take time (tasks abandoned in the queues by Shutdown remain
// counted).
func (s AdmissionSnapshot) Pending() int64 { return s[Injected] - s[Taken] - s[Revoked] }

// String renders the snapshot on one line.
func (s AdmissionSnapshot) String() string {
	return line(AdmissionCounters[:], s[:], "pending="+strconv.FormatInt(s.Pending(), 10))
}
