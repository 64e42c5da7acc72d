// Package trace is the scheduler's always-on execution tracer: per-ring
// (one ring per worker, plus one for the admission path) fixed-size buffers
// of compact binary events, written through an allocation-free owner-only
// path and snapshotted without stopping the writers via per-slot sequence
// stamps (a seqlock; see ring.go). Snapshots export a compact text dump and
// Chrome trace-event JSON loadable in Perfetto (see chrome.go).
//
// The package also provides the worker-state sampling profiler (sampler.go):
// a background goroutine periodically reads each worker's published State
// and accumulates per-state occupancy counters — a statistical CPU-time
// breakdown with zero cost on the scheduler's task paths.
package trace

import (
	"strconv"
	"time"
)

// Kind identifies one event type. The low task-lifecycle kinds are the hot
// ones (recorded per task); the registration-protocol kinds at the tail are
// the former core protocol tracer, migrated onto the same rings.
type Kind uint8

const (
	// Task lifecycle. A task's trace id is the event id (Event.ID) of the
	// event that created it — EvSpawn for interior spawns, EvInjectEnqueue
	// for external admissions — carried in Arg by EvStart/EvDone/
	// EvInjectTake so one task's journey links up across steals and rings.
	EvSpawn         Kind = iota // interior Ctx.Spawn; X = thread requirement
	EvStart                     // execution begins; X = width, Arg = task trace id
	EvDone                      // execution ends; X = width, Arg = task trace id
	EvStealAttempt              // idle worker begins a steal round
	EvSteal                     // successful steal; Other = victim, X = tasks moved
	EvInjectEnqueue             // external admission (admission ring); X = group id
	EvInjectTake                // admitted task taken; X = group id, Arg = task trace id
	EvGroupDone                 // group in-flight count hit zero; X = group id
	// Cancellation (see internal/core's cancel.go). Cancel and deadline-fire
	// land on the admission ring (recorded under the admission lock); the
	// revoke lands on the revoking worker's ring.
	EvGroupCancel  // group canceled (Cancel, or a bound context canceled); X = group id
	EvDeadlineFire // a bound context's deadline passed, canceling the group; X = group id
	EvInjectRevoke // admitted task revoked at take time; X = group id, Arg = task trace id
	// Team lifecycle.
	EvTeamFixed    // coordinator fixed a team; a registration write (below), X = size
	EvPublish      // team execution published; X = size, Arg = generation
	EvPickup       // member picked an execution up; Other = coordinator, X = local id, Arg = generation
	EvExecDone     // team execution complete; X = size, Arg = generation
	EvBarrierEnter // team barrier entered; Other = coordinator, X = local id, Arg = task trace id
	EvBarrierLeave // team barrier passed; Other = coordinator, X = local id, Arg = task trace id
	// Idleness.
	EvPark   // worker begins an idle wait after a failed steal round: spin, then parked until woken
	EvUnpark // worker returns from the idle wait (a spin round ended, or it was woken)
	// Registration-protocol transitions. Each registration write — one
	// successful CAS of a registration word — records one event with X = the
	// acquired count a it wrote and Arg = the whole word (reg.Pack). Other
	// is the worker itself unless noted.
	EvRegister      // write: a member registered; Other = coordinator
	EvDeregister    // write: a member deregistered; Other = coordinator
	EvRevoked       // a member found its registration revoked; Other = coordinator, X = coordinator epoch, Arg = own epoch
	EvLeaveTeam     // a member found its fixed team ended; Other = coordinator, X = team size, Arg = epoch
	EvShrink        // write: team shrunk to a smaller task's block
	EvDisband       // write: team and registrations dropped
	EvPreempt       // write: registrations beyond the team revoked for a smaller task
	EvConflictYield // write: coordination yielded; Other = winning coordinator
	EvGrowAdvertise // write: advertisement changed (a smaller one revokes as EvPreempt does)

	NumKinds
)

var kindNames = [NumKinds]string{
	"spawn", "start", "done", "steal-attempt", "steal",
	"inject-enqueue", "inject-take", "group-done",
	"group-cancel", "deadline-fire", "inject-revoke",
	"team-fixed", "publish", "pickup", "exec-done",
	"barrier-enter", "barrier-leave",
	"park", "unpark",
	"register", "deregister", "revoked", "leave-team", "shrink",
	"disband", "preempt", "conflict-yield", "grow-advertise",
}

func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return "kind-" + strconv.Itoa(int(k))
}

// State is a worker's coarse activity state, published by the worker with a
// plain owner store into an atomic on its own line and read by the sampling
// profiler (and DumpState). Adding a state here without extending StateNames
// fails to compile; the exhaustiveness tests in this package and the metric
// registration in core (one series per state) pick new states up from
// NumStates/StateNames without further edits.
type State uint32

const (
	StateIdle    State = iota // between tasks: coordinating, polling inject
	StateRun                  // running a single-threaded task
	StateRunTeam              // running its share of a team task
	StateSteal                // in a steal round
	StatePark                 // idle wait after a failed steal round: spin, then parked until woken
	StateMember               // registered at another coordinator (in-team polling)

	NumStates
)

// StateNames holds the metric label value of every State.
var StateNames = [NumStates]string{
	"idle", "run", "run_team", "steal", "park", "member",
}

func (s State) String() string {
	if s < NumStates {
		return StateNames[s]
	}
	return "state-" + strconv.Itoa(int(s))
}

// Event is one decoded trace event.
type Event struct {
	Ring  int    // ring the event was recorded on (worker id, or the admission ring)
	Seq   uint64 // per-ring sequence number (dense, starts at 0)
	TS    int64  // monotonic nanoseconds since process start (see Now)
	Kind  Kind
	Other int    // related worker id (victim, coordinator); kind-specific
	X     uint32 // small kind-specific payload (r, team size, group id, count)
	Arg   uint64 // large kind-specific payload (task trace id, epoch, generation)
}

// ID returns the event's process-unique id: ring and sequence packed into
// one word. The id of a task's creating event (spawn/inject-enqueue) is the
// task's trace id.
func (e Event) ID() uint64 { return eventID(e.Ring, e.Seq) }

func eventID(ring int, seq uint64) uint64 {
	return uint64(ring+1)<<48 | seq&(1<<48-1)
}

// base anchors the package's monotonic clock: one clock for every tracer
// and for admission-latency stamping, so timestamps from different rings
// (and different schedulers in one process) are directly comparable.
var base = time.Now()

// Now returns monotonic nanoseconds since process start. It reads the
// monotonic clock and allocates nothing.
func Now() int64 { return int64(time.Since(base)) }
