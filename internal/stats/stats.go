// Package stats collects per-worker scheduler counters.
//
// The counters serve three purposes: (1) assertions in integration tests
// (e.g. "every task ran exactly once", "teams were actually formed"),
// (2) ablation experiments over scheduler variants, and (3) the scheduler's
// metrics registry. Counters are owned by one worker but may be read
// concurrently, so all of them are atomic. The per-worker arrays are padded
// to whole cache lines to avoid false sharing between adjacent workers.
//
// Each counter is declared once: a Counter (or AdmissionCounter) constant
// and its row in Counters (or AdmissionCounters). Adding one takes those two
// lines; snapshots, sums, String and the metric family follow from them.
package stats

import (
	"strconv"
	"strings"
	"sync/atomic"
)

// Counter indexes a Worker's counters.
//
// internal/core's workers publish TasksRun and Spawns in batches, before
// each completion that can release a Wait: on a busy worker they lag by
// what it ran and spawned since, and they are exact after any Wait.
type Counter int

const (
	TasksRun        Counter = iota // tasks executed (team tasks count once per participant); lags, exact after Wait
	TeamTasksRun                   // executions that were part of a team of size > 1
	TeamsFormed                    // team executions published by this worker as coordinator (a kept team counts once per task)
	TeamsCoordd                    // coordination rounds entered
	Spawns                         // tasks pushed to local queues; lags, exact after Wait
	Steals                         // successful steal operations (≥ 1 task)
	TasksStolen                    // tasks transferred by steals
	StealAttempts                  // stealTasks invocations
	FailedAttempts                 // stealTasks rounds with no work found
	Registrations                  // successful team registrations at a coordinator
	Deregistrations                // team deregistrations
	Revocations                    // registrations found revoked (epoch change)
	ConflictsLost                  // coordination conflicts yielded to another coordinator
	CASFailures                    // failed CAS on a registration word
	Backoffs                       // backoff waits (an idle worker's: one per spin round or park)
	Polls                          // pollPartners invocations
	InjectTakes                    // tasks taken from the inject queues
	Parks                          // times the worker blocked on its wake slot
	Wakes                          // wake-ups this worker sent to parked workers
	NumCounters
)

// Desc describes one counter: Short is its key in a snapshot's String, and
// Metric and Help are the registry family that reports it ("" for none).
type Desc struct{ Short, Metric, Help string }

// Counters describes every Counter.
var Counters = [NumCounters]Desc{
	TasksRun:        {"tasks", "repro_sched_tasks_total", "Tasks executed (team tasks count once per participant)."},
	TeamTasksRun:    {"team_tasks", "repro_sched_team_tasks_total", "Task executions that were part of a team of size > 1."},
	TeamsFormed:     {"teams", "repro_sched_teams_formed_total", "Team executions published by a coordinator (a kept team counts once per task)."},
	TeamsCoordd:     {"coord", "repro_sched_coordinations_total", "Coordination rounds entered."},
	Spawns:          {"spawns", "repro_sched_spawns_total", "Tasks pushed to local queues by interior spawns."},
	Steals:          {"steals", "repro_sched_steals_total", "Successful steal operations (>= 1 task)."},
	TasksStolen:     {"stolen", "repro_sched_tasks_stolen_total", "Tasks transferred by steals."},
	StealAttempts:   {"attempts", "repro_sched_steal_attempts_total", "Steal rounds attempted."},
	FailedAttempts:  {"failed", "repro_sched_failed_steal_attempts_total", "Steal rounds that found no work."},
	Registrations:   {"reg", "repro_sched_registrations_total", "Successful team registrations at a coordinator."},
	Deregistrations: {"dereg", "repro_sched_deregistrations_total", "Team deregistrations."},
	Revocations:     {"revoked", "repro_sched_revocations_total", "Registrations found revoked (epoch change)."},
	ConflictsLost:   {"conflicts", "repro_sched_conflicts_lost_total", "Coordination conflicts yielded to another coordinator."},
	CASFailures:     {"cas_fail", "repro_sched_cas_failures_total", "Failed CAS operations on registration words."},
	Backoffs:        {"backoffs", "repro_sched_backoffs_total", "Idle and member waits: spin/yield rounds, sleeps and parks."},
	Polls:           {"polls", "repro_sched_polls_total", "Partner-poll invocations."},
	InjectTakes:     {"inject_takes", "repro_sched_inject_takes_total", "Tasks taken from the inject queues by workers."},
	Parks:           {"parks", "repro_sched_parks_total", "Times an idle worker blocked on its wake slot."},
	Wakes:           {"wakes", "", ""}, // repro_sched_wakeups_total counts wake-ups by source instead
}

// Worker holds the counters of a single worker, indexed by Counter. The
// entries past NumCounters pad it to whole cache lines.
type Worker [(NumCounters + 7) &^ 7]atomic.Int64

// Snapshot is a plain-value copy of a Worker's counters.
type Snapshot [NumCounters]int64

// Snapshot returns a consistent-enough copy for reporting (individual loads
// are atomic; the set is not a single atomic snapshot).
func (w *Worker) Snapshot() Snapshot {
	var s Snapshot
	for c := range s {
		s[c] = w[c].Load()
	}
	return s
}

// Add accumulates o into s.
func (s *Snapshot) Add(o Snapshot) {
	for c := range s {
		s[c] += o[c]
	}
}

// String renders the snapshot on one line.
func (s Snapshot) String() string { return line(Counters[:], s[:]) }

// line renders "short=v" for each counter, then the extra fields, on one
// line.
func line(ds []Desc, vs []int64, extra ...string) string {
	kv := make([]string, len(ds), len(ds)+len(extra))
	for i, d := range ds {
		kv[i] = d.Short + "=" + strconv.FormatInt(vs[i], 10)
	}
	return strings.Join(append(kv, extra...), " ")
}
