// Package repro is the public API of this reproduction of Wimmer & Träff,
// "Work-stealing for mixed-mode parallelism by deterministic team-building"
// (SPAA 2011, arXiv:1012.5030).
//
// The heart of the library is the Scheduler: a work-stealing scheduler whose
// tasks may declare a thread requirement r ≥ 1. Tasks with r = 1 behave like
// classical work-stealing tasks; tasks with r > 1 are executed
// simultaneously by a team of r consecutively numbered workers, built
// deterministically by idle thieves (see the package documentation of
// internal/core for the full protocol).
//
// Quickstart:
//
//	s := repro.NewScheduler(repro.Options{P: 8})
//	defer s.Shutdown()
//	s.Run(repro.Func(4, func(ctx *repro.Ctx) {
//	    fmt.Printf("hello from team member %d/%d\n", ctx.LocalID(), ctx.TeamSize())
//	    ctx.Barrier()
//	}))
//
// The repository also ships the paper's complete evaluation: the mixed-mode
// parallel Quicksort (SortMixedMode), its fork-join and sequential baselines,
// the input distribution generators, and a harness regenerating the paper's
// Tables 1–10 (cmd/tables).
//
// For serving many concurrent clients on one scheduler, see Runtime (each
// sort call runs as its own quiescence Group, so independent requests never
// wait on each other) and Scheduler.NewGroup for the underlying primitive.
package repro

import (
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dist/distpar"
	"repro/internal/msort"
	"repro/internal/qsort"
	"repro/internal/ssort"
	"repro/internal/stats"
)

// Scheduler is the work-stealing scheduler with deterministic team-building.
type Scheduler = core.Scheduler

// Options configures a Scheduler.
type Options = core.Options

// Task is a unit of work with a fixed thread requirement.
type Task = core.Task

// Ctx is the execution context passed to a running task.
type Ctx = core.Ctx

// TaskGroup provides fork/join-style synchronization for single-threaded
// subtasks (the `sync` of the paper's Algorithm 10). A task that spawns into
// a TaskGroup must Wait on it before returning (children of the TaskGroup
// may add siblings without waiting); the scheduler panics on a task that
// returns un-joined. Joined children are part of the task that waits for
// them and are not counted by Group.Pending. One waiting parent per
// TaskGroup at a time: parents on any workers may reuse it one after
// another, never concurrently.
type TaskGroup = core.TaskGroup

// Group is a quiescence domain on a Scheduler: tasks spawned into a group
// (and all their descendants) complete independently of other groups'
// tasks, so one scheduler can serve many concurrent clients. Create with
// Scheduler.NewGroup.
type Group = core.Group

// SchedStats is the aggregate counter snapshot of a scheduler.
type SchedStats = stats.Snapshot

// AdmissionStats is the snapshot of a scheduler's admission-control
// counters (Scheduler.Admission): the bounded inject path's injected /
// taken / rejected / blocked / peak-pending accounting.
type AdmissionStats = stats.AdmissionSnapshot

// Admission errors of the non-blocking spawn forms (Group.TrySpawn,
// Group.TrySpawnBatch) on a scheduler with Options.MaxPendingPerGroup or
// Options.MaxInject configured.
var (
	// ErrSaturated reports that the admission bounds left no room.
	ErrSaturated = core.ErrSaturated
	// ErrShutdown reports a submission to a shut-down scheduler.
	ErrShutdown = core.ErrShutdown
	// ErrCanceled is the cancellation cause of Group.Cancel(nil) and of
	// contexts canceled without a deadline (Group.BindContext, SortManyCtx).
	ErrCanceled = core.ErrCanceled
	// ErrDeadlineExceeded reports a fired group deadline: Group.Deadline
	// passed, a bound context timed out, or a blocking spawn parked past it.
	ErrDeadlineExceeded = core.ErrDeadlineExceeded
)

// NewScheduler starts a scheduler with opts.P workers (default NumCPU).
func NewScheduler(opts Options) *Scheduler { return core.New(opts) }

// Func returns a task requiring r threads that executes fn; fn runs
// simultaneously on all r team members.
func Func(r int, fn func(*Ctx)) Task { return core.Func(r, fn) }

// Solo returns a classical single-threaded task.
func Solo(fn func(*Ctx)) Task { return core.Solo(fn) }

// ForStatic returns a team task of np threads executing body over [0, n)
// with one contiguous chunk per member (static schedule, implicit barrier).
func ForStatic(np, n int, body func(ctx *Ctx, lo, hi int)) Task {
	return core.ForStatic(np, n, body)
}

// ForDynamic returns a team task of np threads executing body over [0, n)
// with members claiming chunks from a shared counter (dynamic schedule);
// chunk ≤ 0 selects a default.
func ForDynamic(np, n, chunk int, body func(ctx *Ctx, lo, hi int)) Task {
	return core.ForDynamic(np, n, chunk, body)
}

// Ordered is the element constraint of the sorting functions.
type Ordered = qsort.Ordered

// MMOptions are the tunables of the mixed-mode parallel quicksort; the zero
// value selects the paper's defaults (cutoff 512, block size 4096, 128
// blocks per partitioning thread).
type MMOptions = qsort.MMOptions

// SortMixedMode sorts data with the paper's mixed-mode parallel Quicksort
// (Algorithm 11): data-parallel block partitioning by worker teams, followed
// by task-parallel recursion. It blocks until the sort completes.
//
// Like the other Sort* functions it has no error result: the one error
// Scheduler.Run can report here is ErrShutdown, and Scheduler.Shutdown
// documents that outcome (the work is abandoned, data stays unsorted).
func SortMixedMode[T Ordered](s *Scheduler, data []T, opt MMOptions) {
	_ = s.Run(qsort.MixedModeRoot(nil, s.MaxTeam(), data, opt))
}

// SortForkJoin sorts data with the classical task-parallel Quicksort
// (Algorithm 10) on the same scheduler; all tasks are single-threaded.
func SortForkJoin[T Ordered](s *Scheduler, data []T) {
	_ = s.Run(qsort.ForkJoinRoot(nil, data, qsort.DefaultCutoff)) // see SortMixedMode
}

// SortSequential sorts data with the repository's introsort (the stand-in
// for std::sort used as the paper's sequential baseline).
func SortSequential[T Ordered](data []T) { qsort.Introsort(data) }

// SSOptions are the tunables of the mixed-mode parallel samplesort.
type SSOptions = ssort.Options

// SortSamplesort sorts data with a mixed-mode parallel samplesort built
// from the team-parallel primitives of internal/par: a worker team samples
// splitters, histograms and scatters its range into buckets, and the
// buckets are sorted by recursively spawned tasks — a structurally
// different mixed-mode algorithm beside the paper's Quicksort. Allocates
// one scratch buffer of len(data) per call (Runtime.SortSamplesort pools it).
func SortSamplesort[T Ordered](s *Scheduler, data []T, opt SSOptions) {
	_ = s.Run(ssort.Root(nil, s.MaxTeam(), data, nil, opt)) // see SortMixedMode
}

// MSOptions are the tunables of the mixed-mode parallel merge sort.
type MSOptions = msort.Options

// SortMergeMixedMode sorts data with a mixed-mode parallel merge sort
// (task-parallel recursion, team-parallel co-ranked merges) — a second
// mixed-mode application beyond the paper's Quicksort. Allocates one scratch
// buffer of len(data) per call (Runtime.SortMergeMixedMode pools it).
func SortMergeMixedMode[T Ordered](s *Scheduler, data []T, opt MSOptions) {
	_ = s.Run(msort.Root(data, nil, opt)) // see SortMixedMode
}

// Distribution identifies one of the paper's benchmark input distributions.
type Distribution = dist.Kind

// Benchmark input distributions: the paper's four (§5; Helman–Bader–JáJá
// definitions) plus the additional scenario kinds of the wider suite.
const (
	Random    = dist.Random
	Gauss     = dist.Gauss
	Buckets   = dist.Buckets
	Staggered = dist.Staggered
	Zero      = dist.Zero
	Sorted    = dist.Sorted
	Reverse   = dist.Reverse
	RandDup   = dist.RandDup
	WorstCase = dist.WorstCase
)

// Distributions returns every registered distribution. The slice is a
// copy; callers may reorder it freely.
func Distributions() []Distribution {
	return append([]Distribution(nil), dist.Kinds...)
}

// ParseDistribution resolves a distribution name (e.g. "staggered"),
// case-insensitively.
func ParseDistribution(s string) (Distribution, error) { return dist.Parse(s) }

// GenerateInput returns n reproducibly seeded values of the distribution.
func GenerateInput(k Distribution, n int, seed uint64) []int32 {
	return dist.Generate(k, n, seed)
}

// GenerateInputParallel is GenerateInput computed by a worker team of s;
// the output is bit-identical to the sequential GenerateInput.
func GenerateInputParallel(s *Scheduler, k Distribution, n int, seed uint64) []int32 {
	return distpar.Generate(s, k, n, seed)
}
