#!/usr/bin/env bash
set -euo pipefail

# Bounded fuzzing pass for panic/crash detection.
#
# This verifier is intentionally short-running (FUZZTIME per target, 10s by
# default); it exists to catch generator panics and registry regressions in
# CI, not to replace long-running fuzz campaigns. It is expected to grow
# targeted fuzz functions over time.

cd "$(dirname "$0")/.."

FUZZTIME=${FUZZTIME:-10s}
failures=0

fuzzRegex='^func[[:space:]]+Fuzz[A-Za-z0-9_]+'
missing=()

# internal/core carries FuzzMixedWorkload (the protocol fuzzer: random
# mixed-width task trees on P workers, every task run exactly once per
# required thread with local ids 0…r−1), FuzzGroup (per-group quiescence),
# FuzzAdmission (bounded inject queues: fairness + bound invariants under
# random floods) and FuzzCancel (random spawn/cancel/deadline/reset
# schedules: WaitErr agrees with the canceled state, inflight reconciles,
# counters balance); internal/chaos carries FuzzCancelStorm (team tasks
# under fault injection and a cancel storm: every admitted task ran r times
# or, in a canceled group, not at all; injected == taken + revoked);
# internal/stats carries FuzzPercentile (nearest-rank vs brute-force oracle);
# internal/query carries FuzzFilter/FuzzTopK/FuzzGroupBy/FuzzMergeJoin/FuzzPlan
# (analytics operators and random plans vs their sequential oracles, Filter
# into an exact-fit dst); internal/par carries FuzzScan and FuzzPack (an
# index-dependent keep into an exact-fit dst);
# internal/teamsync carries FuzzBarrier (n members, random per-phase delays:
# nobody passes early, one last arriver per phase); internal/qsort carries
# FuzzPartition (duplicate-dense slices through the three block-partition
# kernels' contracts and their finish, and Introsort against slices.Sort) and
# FuzzSmallSort (the network-and-merges base case at any length vs
# slices.Sort; with NaNs, a permutation of the input); internal/ssort
# carries FuzzClassify (the implicit splitter tree's walk vs binary search
# over the sorted splitters) and FuzzSort (the team samplesort on
# duplicate-dense input vs slices.Sort, any bucket count, any scratch);
# internal/deque carries FuzzDeque (a random owner push/pop schedule against
# one to three concurrent PopTop or Steal thieves, across ring growth: every
# element taken exactly once).
fuzzDirs=(internal/chaos internal/core internal/deque internal/dist internal/par internal/qsort internal/query internal/ssort internal/stats internal/teamsync)

for dir in "${fuzzDirs[@]}"; do
  if ! grep -rEn --include='*_test.go' "${fuzzRegex}" "${dir}" >/dev/null 2>&1; then
    missing+=("${dir}")
  fi
done

if [[ "${#missing[@]}" -ne 0 ]]; then
  echo "fuzz-smoke: FAIL (no fuzz targets found in: ${missing[*]})"
  echo "Add at least one 'func FuzzXxx(f *testing.F)' in each package group."
  exit 1
fi

echo "fuzz-smoke: running bounded fuzz pass (${FUZZTIME} per target)"

# The go toolchain fuzzes one target per invocation; enumerate them.
for dir in "${fuzzDirs[@]}"; do
  for t in $(go test -list 'Fuzz.*' "./${dir}" | grep -E '^Fuzz'); do
    echo "fuzz-smoke: ${dir}/${t}"
    go test "./${dir}" -run '^$' -fuzz "^${t}\$" -fuzztime="${FUZZTIME}" || failures=$((failures + 1))
  done
done

if [[ "${failures}" -ne 0 ]]; then
  echo "fuzz-smoke: FAIL (${failures} fuzz target(s) failed)"
  exit 1
fi

echo "fuzz-smoke: PASS"
