#!/usr/bin/env bash
set -euo pipefail

# Benchmark trajectory: runs the scheduler core microbenchmarks, the
# team-parallel primitive benchmarks, the samplesort-vs-quicksort
# benchmarks, and the multi-client throughput harness, and emits
# machine-readable JSON (`go test -bench -json` post-processed by
# scripts/benchjson; cmd/throughput emits JSON natively).
#
#   BENCH_core.json        scheduler hot-path microbenchmarks (spawn/join
#                          ping-pong, empty-task fan-out, steal imbalance,
#                          injected-take poll, inject latency, fork-join
#                          tree; includes allocs/op), wrapped as
#                          {baseline, current} against the recorded
#                          scripts/core-baseline.json (the pre-pooling
#                          scheduler) so the trajectory keeps before/after
#   BENCH_par.json         primitive throughput (Reduce/Scan/Pack/Histogram/MinMax/Map)
#   BENCH_sort.json        mixed-mode quicksort vs samplesort per distribution
#   BENCH_throughput.json  C concurrent clients × request mix on one shared scheduler
#   BENCH_query.json       analytics operators: {operators} per-operator team
#                          benchmarks (ns/op), {analytics_mix} the multi-client
#                          `cmd/throughput -mix analytics` report (req/s +
#                          per-operator latency percentiles)
#
# Environment:
#   BENCHTIME     per-benchmark time or count (default 1s; bench-smoke uses
#                 1x, which also selects a tiny throughput run)
#   OUTDIR        output directory for the JSON files (default repo root)
#   TP_CLIENTS    throughput harness client count (default 8)
#   TP_DURATION   throughput harness measurement duration (default 3s;
#                 per sweep point in full mode)
#   TP_SWEEP      full mode only: clients×p sweep list recording the
#                 saturation knee (default 1,2,4,8,16; empty disables)
#   TP_MAXINJECT  admission bound (Options.MaxInject) so the trajectory
#                 records backpressure counters (default 32; 0 unbounded)

cd "$(dirname "$0")/.."

BENCHTIME=${BENCHTIME:-1s}
OUTDIR=${OUTDIR:-.}

TP_MAXINJECT=${TP_MAXINJECT:-32}
TP_ARGS=(-max-inject "${TP_MAXINJECT}")
if [[ "${BENCHTIME}" == "1x" ]]; then
  # Smoke mode: one tiny mix, just enough to prove the harness (including
  # the admission counters) end to end.
  TP_CLIENTS=${TP_CLIENTS:-4}
  TP_DURATION=${TP_DURATION:-300ms}
  TP_ARGS+=(-sizes 65536 -dists random,staggered)
else
  TP_CLIENTS=${TP_CLIENTS:-8}
  TP_DURATION=${TP_DURATION:-3s}
  TP_SWEEP=${TP_SWEEP:-1,2,4,8,16}
  if [[ -n "${TP_SWEEP}" ]]; then
    TP_ARGS+=(-sweep "${TP_SWEEP}")
  fi
fi

echo "bench: core (benchtime ${BENCHTIME}) -> ${OUTDIR}/BENCH_core.json"
# -p 1: the three packages' benchmark binaries must not share the box — run
# side by side on a 2-CPU host they inflate each other's ns/op by 20–100 %.
go test -p 1 -run '^$' -bench '^Benchmark(SpawnJoinPingPong|EmptyTaskFanout|StealImbalance|InjectedTakeEmpty|InjectLatency|ForkJoinTree|HistogramObserve|TraceRecord)$' \
  -benchtime "${BENCHTIME}" -json ./internal/core ./internal/stats ./internal/trace |
  go run ./scripts/benchjson -baseline scripts/core-baseline.json > "${OUTDIR}/BENCH_core.json"

echo "bench: primitives (benchtime ${BENCHTIME}) -> ${OUTDIR}/BENCH_par.json"
go test -run '^$' -bench '^Benchmark(Reduce|ScanInclusive|ScanExclusive|Pack|Histogram|MinMax|Map)$' \
  -benchtime "${BENCHTIME}" -json ./internal/par |
  go run ./scripts/benchjson > "${OUTDIR}/BENCH_par.json"

echo "bench: sorts (benchtime ${BENCHTIME}) -> ${OUTDIR}/BENCH_sort.json"
go test -run '^$' -bench '^Benchmark(SSort|MMQsort)$' \
  -benchtime "${BENCHTIME}" -json ./internal/ssort |
  go run ./scripts/benchjson > "${OUTDIR}/BENCH_sort.json"

echo "bench: throughput (${TP_CLIENTS} clients, ${TP_DURATION}) -> ${OUTDIR}/BENCH_throughput.json"
go run ./cmd/throughput -clients "${TP_CLIENTS}" -duration "${TP_DURATION}" \
  ${TP_ARGS[@]+"${TP_ARGS[@]}"} > "${OUTDIR}/BENCH_throughput.json"

echo "bench: query (benchtime ${BENCHTIME}; analytics mix ${TP_CLIENTS} clients, ${TP_DURATION}) -> ${OUTDIR}/BENCH_query.json"
querydir=$(mktemp -d)
trap 'rm -rf "${querydir}"' EXIT
go test -run '^$' -bench '^BenchmarkQuery' \
  -benchtime "${BENCHTIME}" -json ./internal/query |
  go run ./scripts/benchjson > "${querydir}/operators.json"
# The analytics mix reuses the sort harness knobs (clients, duration,
# admission bound); the sweep stays a sort-mode concern.
go run ./cmd/throughput -mix analytics -clients "${TP_CLIENTS}" -duration "${TP_DURATION}" \
  -max-inject "${TP_MAXINJECT}" -sizes 65536,262144 -dists random,staggered \
  > "${querydir}/mix.json"
{
  printf '{"operators":'
  cat "${querydir}/operators.json"
  printf ',"analytics_mix":'
  cat "${querydir}/mix.json"
  printf '}\n'
} > "${OUTDIR}/BENCH_query.json"

echo "bench: PASS"
