#!/usr/bin/env bash
set -euo pipefail

# Tier-1 verification gate plus static and race checks. CI and pre-commit
# entry point; `make check` delegates here.

cd "$(dirname "$0")/.."

# RACE_PKGS and VET_FLAGS live in checkdefs.sh, shared with the Makefile.
. ./scripts/checkdefs.sh

echo "check: gofmt"
unformatted=$(gofmt -l .)
if [[ -n "${unformatted}" ]]; then
  echo "check: FAIL (gofmt needed on: ${unformatted})"
  exit 1
fi

echo "check: go build ./..."
go build ./...

echo "check: go vet ${VET_FLAGS} ./..."
go vet ${VET_FLAGS} ./...

echo "check: reprolint (noalloc, barrier + manifest pin)"
go run ./cmd/reprolint ./...

# Every atomically accessed field is a typed atomic (atomic.Uint64 and
# friends), so the compiler rejects a plain read or write of it and vet's
# copylocks a copy. A function-style call on a plain field would bring back
# the mixed access nothing checks statically.
echo "check: no function-style sync/atomic call in non-test code"
if grep -rnE --include='*.go' --exclude='*_test.go' \
  'atomic\.(Add|Load|Store|Swap|CompareAndSwap)(Int|Uint|Pointer|Uintptr)' . \
  | grep -v '^\./internal/lint/testdata/'; then
  echo "check: FAIL (use a typed atomic field instead)"
  exit 1
fi

echo "check: codegencheck (qsort's scan loops, the benchmark binary's Filter/Pack loops, its samplesort tree walk and its sorting network and merges count and select with SETcc/MOVZX/CMOVcc, not a jump or a call)"
./scripts/codegencheck.sh

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

echo "check: go test ./..."
go test ./...

# Count-flake guard: the tests that assert on quiescence, release counts,
# cancellation (internal/chaos's FuzzCancelStorm seeds among them), forced
# steals, the park/wake protocol and the waits inside a team, ten times over,
# so a timing-dependent assertion fails at the change that introduces it
# (bounded by -timeout — idle workers and team members block without a timer,
# so a lost wake-up is a hang).
echo "check: go test -count=10 (Group|TaskGroup|Wait|Cancel|Distributed|StealsAreSingle|Park|Wake|Barrier|Countdown|Member|Churn|Transition)"
go test -count=10 -timeout 300s -run 'Group|TaskGroup|Wait|Cancel|Distributed|StealsAreSingle|Park|Wake|Barrier|Countdown|Member|Churn|Transition' \
  ./internal/core ./internal/classic ./internal/chaos ./internal/teamsync ./internal/wake

# The race list and its rationale live in scripts/checkdefs.sh.
echo "check: go test -race ${RACE_PKGS}"
go test -race ${RACE_PKGS}

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
