// Package stats collects per-worker scheduler counters.
//
// The counters serve three purposes: (1) assertions in integration tests
// (e.g. "every task ran exactly once", "teams were actually formed"),
// (2) ablation experiments over scheduler variants, and (3) the scheduler's
// metrics registry. Counters are owned by one worker but may be read
// concurrently, so all fields are atomic. The per-worker structs are padded
// to a cache line to avoid false sharing between adjacent workers.
package stats

import (
	"fmt"
	"sync/atomic"
)

// Worker holds the counters of a single worker.
//
// internal/core's workers publish TasksRun and Spawns in batches, before
// each completion that can release a Wait: on a busy worker they lag by
// what it ran and spawned since, and they are exact after any Wait.
type Worker struct {
	TasksRun        atomic.Int64 // tasks executed (team tasks count once per participant); lags, exact after Wait
	TeamTasksRun    atomic.Int64 // executions that were part of a team of size > 1
	TeamsFormed     atomic.Int64 // team executions published by this worker as coordinator (a kept team counts once per task)
	TeamsCoordd     atomic.Int64 // coordination rounds entered
	Spawns          atomic.Int64 // tasks pushed to local queues; lags, exact after Wait
	Steals          atomic.Int64 // successful steal operations (≥ 1 task)
	TasksStolen     atomic.Int64 // tasks transferred by steals
	StealAttempts   atomic.Int64 // stealTasks invocations
	FailedAttempts  atomic.Int64 // stealTasks rounds with no work found
	Registrations   atomic.Int64 // successful team registrations at a coordinator
	Deregistrations atomic.Int64
	Revocations     atomic.Int64 // registrations found revoked (epoch change)
	ConflictsLost   atomic.Int64 // coordination conflicts yielded to another coordinator
	CASFailures     atomic.Int64 // failed CAS on a registration word
	Backoffs        atomic.Int64 // backoff waits (an idle worker's: one per spin round or park)
	Polls           atomic.Int64 // pollPartners invocations
	InjectTakes     atomic.Int64 // tasks taken from the inject queues
	Parks           atomic.Int64 // times the worker blocked on its wake slot
	Wakes           atomic.Int64 // wake-ups this worker sent to parked workers

	_ [5]int64 // pad to reduce false sharing (24 words: three cache lines)
}

// Snapshot is a plain-value copy of a Worker's counters.
type Snapshot struct {
	TasksRun, TeamTasksRun, TeamsFormed, TeamsCoordd  int64
	Spawns, Steals, TasksStolen, StealAttempts        int64
	FailedAttempts, Registrations, Deregistrations    int64
	Revocations, ConflictsLost, CASFailures, Backoffs int64
	Polls, InjectTakes, Parks, Wakes                  int64
}

// Snapshot returns a consistent-enough copy for reporting (individual loads
// are atomic; the set is not a single atomic snapshot).
func (w *Worker) Snapshot() Snapshot {
	return Snapshot{
		TasksRun:        w.TasksRun.Load(),
		TeamTasksRun:    w.TeamTasksRun.Load(),
		TeamsFormed:     w.TeamsFormed.Load(),
		TeamsCoordd:     w.TeamsCoordd.Load(),
		Spawns:          w.Spawns.Load(),
		Steals:          w.Steals.Load(),
		TasksStolen:     w.TasksStolen.Load(),
		StealAttempts:   w.StealAttempts.Load(),
		FailedAttempts:  w.FailedAttempts.Load(),
		Registrations:   w.Registrations.Load(),
		Deregistrations: w.Deregistrations.Load(),
		Revocations:     w.Revocations.Load(),
		ConflictsLost:   w.ConflictsLost.Load(),
		CASFailures:     w.CASFailures.Load(),
		Backoffs:        w.Backoffs.Load(),
		Polls:           w.Polls.Load(),
		InjectTakes:     w.InjectTakes.Load(),
		Parks:           w.Parks.Load(),
		Wakes:           w.Wakes.Load(),
	}
}

// Add accumulates o into s.
func (s *Snapshot) Add(o Snapshot) {
	s.TasksRun += o.TasksRun
	s.TeamTasksRun += o.TeamTasksRun
	s.TeamsFormed += o.TeamsFormed
	s.TeamsCoordd += o.TeamsCoordd
	s.Spawns += o.Spawns
	s.Steals += o.Steals
	s.TasksStolen += o.TasksStolen
	s.StealAttempts += o.StealAttempts
	s.FailedAttempts += o.FailedAttempts
	s.Registrations += o.Registrations
	s.Deregistrations += o.Deregistrations
	s.Revocations += o.Revocations
	s.ConflictsLost += o.ConflictsLost
	s.CASFailures += o.CASFailures
	s.Backoffs += o.Backoffs
	s.Polls += o.Polls
	s.InjectTakes += o.InjectTakes
	s.Parks += o.Parks
	s.Wakes += o.Wakes
}

// String renders the snapshot on one line.
func (s Snapshot) String() string {
	return fmt.Sprintf(
		"tasks=%d team_tasks=%d teams=%d coord=%d spawns=%d steals=%d stolen=%d attempts=%d failed=%d reg=%d dereg=%d revoked=%d conflicts=%d cas_fail=%d backoffs=%d polls=%d inject_takes=%d parks=%d wakes=%d",
		s.TasksRun, s.TeamTasksRun, s.TeamsFormed, s.TeamsCoordd, s.Spawns,
		s.Steals, s.TasksStolen, s.StealAttempts, s.FailedAttempts,
		s.Registrations, s.Deregistrations, s.Revocations, s.ConflictsLost,
		s.CASFailures, s.Backoffs, s.Polls, s.InjectTakes, s.Parks, s.Wakes)
}

// Sum aggregates the snapshots of all workers.
func Sum(ws []*Worker) Snapshot {
	var total Snapshot
	for _, w := range ws {
		total.Add(w.Snapshot())
	}
	return total
}
