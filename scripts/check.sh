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

echo "check: reprolint (atomicmix, noalloc on the compiler's escape analysis, barrier + manifest pin)"
go run ./cmd/reprolint ./...

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

echo "check: go test ./..."
go test ./...

# Count-flake guard: the tests that assert on quiescence, release counts,
# cancellation, forced steals, the park/wake protocol and the waits inside a
# team, ten times over, so a timing-dependent assertion fails at the PR that
# introduces it (bounded by -timeout — idle workers and team members block
# without a timer, so a lost wake-up is a hang).
echo "check: go test -count=10 (Group|TaskGroup|Wait|Cancel|Distributed|StealsAreSingle|Park|Wake|Barrier|Countdown|Member|Churn)"
go test -count=10 -timeout 300s -run 'Group|TaskGroup|Wait|Cancel|Distributed|StealsAreSingle|Park|Wake|Barrier|Countdown|Member|Churn' \
  ./internal/core ./internal/classic ./internal/chaos ./internal/teamsync ./internal/wake

# The race list and its rationale live in scripts/checkdefs.sh.
echo "check: go test -race ${RACE_PKGS}"
go test -race ${RACE_PKGS}

echo "check: bounded-queue throughput smoke (admission backpressure end to end)"
go run ./cmd/throughput -clients 8 -max-pending 2 -max-inject 8 -duration 300ms \
  -sizes 65536 -dists random -algos mmpar,fork > /dev/null

echo "check: chaos smoke (fault injection + cancel storm, invariants checked per round; a lost wake-up is the timeout)"
timeout 120 go run ./cmd/stress -p 4 -rounds 8 -tasks 120 -chaos -seed 1 > /dev/null

echo "check: abandon-mix smoke (deadline-abandoned batches vs interactive sorts)"
go run ./cmd/throughput -mix abandon -clients 6 -duration 400ms -abandon-after 3ms \
  -sizes 16384,262144 -dists random -algos mmpar,msort -max-inject 32 > /dev/null

# live_scrape <require-list> <metricscheck-flags> -- <throughput args…> runs
# cmd/throughput in the background, waits for the metrics address it
# advertises on stderr, validates a mid-run scrape with metricscheck and then
# waits for the run to exit cleanly; its report is left in ${smokedir}/tp.json.
smokedir=$(mktemp -d)
tp_pid=""
trap '[[ -n "${tp_pid}" ]] && kill "${tp_pid}" 2>/dev/null; rm -rf "${smokedir}"' EXIT
go build -o "${smokedir}/metricscheck" ./scripts/metricscheck
go build -o "${smokedir}/tracecheck" ./scripts/tracecheck
live_scrape() {
  local require=$1 flags=$2 addr=""
  shift 3 # the two above and the --
  go run ./cmd/throughput "$@" > "${smokedir}/tp.json" 2> "${smokedir}/tp.err" &
  tp_pid=$!
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^throughput: metrics listening on //p' "${smokedir}/tp.err" | head -n1)
    [[ -n "${addr}" ]] && break
    kill -0 "${tp_pid}" 2>/dev/null || break # exited before advertising one
    sleep 0.1
  done
  if [[ -z "${addr}" ]]; then
    echo "check: FAIL (throughput advertised no metrics address)"
    cat "${smokedir}/tp.err"
    exit 1
  fi
  "${smokedir}/metricscheck" ${flags} -require "${require}" "http://${addr}/metrics"
  wait "${tp_pid}"
  tp_pid=""
}

echo "check: metrics exposition smoke (/metrics scraped mid-run)"
live_scrape repro_sched_steals_total,repro_sched_inject_takes_total,repro_sched_parks_total,repro_sched_wakeups_total,repro_sched_inflight_tasks,repro_admission_injected_total,repro_admission_wait_seconds_count,repro_uptime_seconds,repro_worker_state_samples_total,repro_trace_events_total,repro_group_pending_sorts,repro_sort_latency_seconds_bucket,repro_canceled_total,repro_revoked_total,repro_spawn_timeouts_total \
  "-retry 5s -monotonic 1s" -- \
  -clients 4 -sizes 65536 -dists random -algos mmpar,fork \
  -duration 3s -metrics-addr 127.0.0.1:0 -profile-hz 199

echo "check: trace export smoke (-trace-out validated by tracecheck)"
go run ./cmd/throughput -clients 4 -sizes 65536 -dists random -algos mmpar,fork \
  -duration 300ms -trace-out "${smokedir}/trace.json" -profile-hz 199 > /dev/null
"${smokedir}/tracecheck" -min-events 100 "${smokedir}/trace.json"

echo "check: analytics-mix smoke (query operators end to end, /metrics + trace mid-mix)"
live_scrape repro_queries_total,repro_query_latency_seconds_bucket,repro_group_pending_queries,repro_sched_steals_total \
  "-retry 5s" -- \
  -mix analytics -clients 4 -sizes 65536 -dists random,randdup \
  -duration 3s -metrics-addr 127.0.0.1:0 -trace-out "${smokedir}/trace.json"
"${smokedir}/tracecheck" -min-events 100 "${smokedir}/trace.json"
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
