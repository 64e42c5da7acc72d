#!/usr/bin/env bash
set -euo pipefail

# Tier-1 verification gate plus static and race checks. CI and pre-commit
# entry point; `make check` delegates here.

cd "$(dirname "$0")/.."

echo "check: gofmt"
unformatted=$(gofmt -l .)
if [[ -n "${unformatted}" ]]; then
  echo "check: FAIL (gofmt needed on: ${unformatted})"
  exit 1
fi

echo "check: go build ./..."
go build ./...

# Plain go vet runs the whole default analyzer suite, test files included;
# naming an analyzer's flag (-tests=true, say) would run that one alone.
echo "check: go vet ./..."
go vet ./...

# bench/ is a module of its own that imports this one's internal packages;
# vetting it compiles it and its tests against this tree, so a change that
# breaks the benchmark fails here and not first in the benchmark pipeline.
echo "check: (cd bench && go vet ./...)"
(cd bench && go vet ./...)

# Every atomically accessed field is a typed atomic (atomic.Uint64 and
# friends), so the compiler rejects a plain read or write of it and vet's
# copylocks a copy. A function-style call on a plain field would bring back
# the mixed access nothing checks statically. The one exception is the deque's
# ring slot, whose mixed access is the design: the owner stores it plainly
# unless a thief is in flight (internal/deque's package doc gives the
# happens-before argument, TestSteadyDepthWrap below checks it under -race).
# Its two accessors in internal/deque/deque.go, ring.load and
# ring.storeAtomic, are the only lines allowed.
echo "check: no function-style sync/atomic call in non-test code (except the deque's two ring-slot accessors)"
if grep -rnE --include='*.go' --exclude='*_test.go' \
  'atomic\.(Add|Load|Store|Swap|CompareAndSwap)(Int|Uint|Pointer|Uintptr)' . \
  | grep -vE '^\./internal/deque/deque\.go:[0-9]+:func \(r \*ring\[T\]\) (load\(i int64\) \*T \{ return \(\*T\)\(atomic\.LoadPointer|storeAtomic\(i int64, v \*T\) \{ atomic\.StorePointer)\(r\.slot\(i\)'; then
  echo "check: FAIL (use a typed atomic field instead)"
  exit 1
fi

# No timer inside a team: teamsync parks on wake slots and takes only the
# spin/yield rounds from internal/backoff, and the timed Wait is left to the
# three polling waits of internal/core that have no single waker yet (gather,
# the non-teamed member, TaskGroup.Wait).
echo "check: no timed backoff inside a team"
if grep -n 'bo\.Wait()\|time\.Sleep' internal/teamsync/barrier.go internal/wake/slot.go internal/core/teamwait.go; then
  echo "check: FAIL (a team wait sleeps on a timer)"
  exit 1
fi
waits=$(grep -c 'bo\.Wait()' $(ls internal/core/*.go | grep -v '_test\.go$') | grep -v ':0$' | tr '\n' ' ')
if [[ "${waits}" != "internal/core/coordinate.go:1 internal/core/taskgroup.go:1 internal/core/worker.go:1 " ]]; then
  echo "check: FAIL (backoff.Wait call sites in internal/core are ${waits}; want one each in coordinate, taskgroup, worker)"
  exit 1
fi

# One deadline: a group's deadline is its bound context's, and the only timed
# waits are internal/backoff's (pinned above), so internal/core arms no timer
# of its own for the explorer or a synctest bubble to model.
echo "check: no timer in internal/core"
if grep -n 'time\.\(AfterFunc\|NewTimer\|NewTicker\|After(\)' $(ls internal/core/*.go | grep -v '_test\.go$'); then
  echo "check: FAIL (non-test internal/core arms a timer; bind a context with a deadline instead)"
  exit 1
fi

# One thief: worker.steal (steal.go) is the only code in internal/core that
# moves tasks between deques, so every steal is counted, traced and passes
# the wake on in one place.
echo "check: one steal in internal/core"
core_src=$(ls internal/core/*.go | grep -v '_test\.go$')
steals=$(cat ${core_src} | grep -c 'deque\.Steal(' || true)
pops=$(cat ${core_src} | grep -c 'PopTop()' || true)
if [[ "${steals}" != 1 || "${pops}" != 0 ]]; then
  echo "check: FAIL (non-test internal/core has ${steals} deque.Steal( calls and ${pops} PopTop() calls; want 1 and 0)"
  exit 1
fi

# One registration write: worker.cas is the only CAS of a registration word,
# and every word it writes comes from a rule of internal/reg, so every
# transition is counted, traced and wakes the members it evicts in one place.
echo "check: one registration CAS in internal/core"
cases=$(cat ${core_src} | grep -c 'regw\.CAS(' || true)
literals=$(cat ${core_src} | grep -c 'reg\.R{' || true)
if [[ "${cases}" != 1 || "${literals}" != 0 ]]; then
  echo "check: FAIL (non-test internal/core has ${cases} regw.CAS( calls and ${literals} reg.R{ literals; want 1 and 0)"
  exit 1
fi

# One team wait: the wake slots park a team's members only behind
# internal/core's Ctx.Barrier and the goroutine barrier of internal/teamsync,
# so every wait inside a team shows up in FaultTeamPark, the Parks counter,
# DumpState and the trace. `go list ./...` covers this module only; bench/ is
# a module of its own.
echo "check: who imports internal/wake and internal/teamsync"
imports=$(go list -f '{{.ImportPath}}: {{join .Imports " "}}' ./... | awk '{
  pkg = substr($1, 1, length($1) - 1)
  for (i = 2; i <= NF; i++) {
    if ($i == "repro/internal/wake" && pkg != "repro/internal/core" && pkg != "repro/internal/teamsync") print pkg " imports " $i
    if ($i == "repro/internal/teamsync" && pkg != "repro/internal/core") print pkg " imports " $i
  }
}')
if [[ -n "${imports}" ]]; then
  echo "check: FAIL (team waits go through Ctx.Barrier: ${imports})"
  exit 1
fi

echo "check: go test ./..."
go test ./...

# Count-flake guard: the tests that assert on quiescence, release counts,
# cancellation and bound-context deadlines (internal/chaos's FuzzCancelStorm
# seeds among them), forced
# steals, the park/wake protocol and the waits inside a team, ten times over,
# so a timing-dependent assertion fails at the change that introduces it
# (bounded by -timeout — idle workers and team members block without a timer,
# so a lost wake-up is a hang).
echo "check: go test -count=10 (Group|TaskGroup|Wait|Cancel|Deadline|BindContext|Distributed|StealsAreSingle|Park|Wake|Barrier|Countdown|Member|Churn|Transition)"
go test -count=10 -timeout 300s -run 'Group|TaskGroup|Wait|Cancel|Deadline|BindContext|Distributed|StealsAreSingle|Park|Wake|Barrier|Countdown|Member|Churn|Transition' \
  ./internal/core ./internal/classic ./internal/chaos ./internal/teamsync ./internal/wake

# Every team collective ends in its barrier because each exported collective
# is its body followed by ctx.Barrier(); these tests call each one twice back
# to back on the same state, so a missing trailing barrier is a data race.
# The samplesort's team step syncs on as few barriers (par.Hist.Cursors needs
# none), so its odd-team and all-kinds tests run under the same pass, and so
# do the Runtime's concurrent analytics and samplesort tests: their clients'
# requests pass pooled query.Ops and recycled samplesort team steps, state
# and scratch and all, from one client and shape to the next.
echo "check: go test -race -count=5 -run CollectiveReuse (par, query), SortOddTeamAndRecursion|SortAllKinds (ssort), RuntimeAnalyticsConcurrent|SamplesortScratchIsPooled (root)"
go test -race -count=5 -run CollectiveReuse ./internal/par ./internal/query
go test -race -count=5 -run 'TestSortOddTeamAndRecursion|TestSortAllKinds' ./internal/ssort
go test -race -count=5 -run 'TestRuntimeAnalyticsConcurrent|TestSamplesortScratchIsPooled' .

# The deque owner's plain slot store is race-free only because it turns
# atomic while a thief is in flight; this test wraps a ring under thieves,
# where a plain store in its place is a race the detector reports.
echo "check: go test -race -count=10 -run SteadyDepthWrap (deque)"
go test -race -count=10 -run SteadyDepthWrap ./internal/deque

# Every package runs under the race detector: it is the only dynamic check
# on how the atomics are used.
echo "check: go test -race ./..."
go test -race ./...

echo "check: bounded-queue throughput smoke (admission backpressure end to end)"
go run ./cmd/throughput -clients 8 -max-pending 2 -max-inject 8 -duration 300ms \
  -sizes 65536 -dists random -algos mmpar,fork > /dev/null

echo "check: abandon-mix smoke (deadline-abandoned batches vs interactive sorts)"
go run ./cmd/throughput -mix abandon -clients 6 -duration 400ms -abandon-after 3ms \
  -sizes 16384,262144 -dists random -algos mmpar,msort -max-inject 32 > /dev/null

# The live /metrics scrape and the trace export are checked in-process by the
# root package's TestMetricsLiveScrape and TestRuntimeTrace; this smoke keeps
# the binary's -metrics-addr and -trace-out wiring running end to end.
smokedir=$(mktemp -d)
trap 'rm -rf "${smokedir}"' EXIT
echo "check: analytics-mix smoke (query operators end to end, with /metrics served and a trace written)"
go run ./cmd/throughput -mix analytics -clients 4 -sizes 65536 -dists random,randdup \
  -duration 3s -metrics-addr 127.0.0.1:0 -trace-out "${smokedir}/trace.json" > "${smokedir}/tp.json"
if ! grep -q '"mix": *"analytics"' "${smokedir}/tp.json"; then
  echo "check: FAIL (analytics report does not record its mix)"
  cat "${smokedir}/tp.json"
  exit 1
fi

# The microbenchmarks are developer tools (the numbers of record come from
# bench/run.sh); one iteration of each keeps them from bit-rotting.
echo "check: every Benchmark* function runs once"
go test -run '^$' -bench . -benchtime 1x ./...

echo "check: PASS"
