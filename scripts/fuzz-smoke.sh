#!/usr/bin/env bash
set -euo pipefail

# Bounded fuzzing pass for panic/crash detection.
#
# This verifier is intentionally short-running (FUZZTIME per target, 10s by
# default); it exists to catch generator panics and registry regressions in
# CI, not to replace long-running fuzz campaigns.
#
# It finds its targets itself: every package with a `func FuzzXxx` in a test
# file is fuzzed, each target for FUZZTIME. `go test -list` names them, so a
# new target runs without an edit here; what each one checks is in its doc
# comment.
#
# Lock-free code is where a fuzzer earns its keep, so every package that
# imports sync/atomic in non-test code must carry a fuzz target or stand in
# the allow-list below with the reason it has none.

cd "$(dirname "$0")/.."

FUZZTIME=${FUZZTIME:-10s}
failures=0

declare -A allow=(
  [repro]="request plumbing over internal/core: metric gauges and a shard ticket; the scheduler it wraps is fuzzed there"
  [repro/internal/classic]="the paper's baseline scheduler: its deque is FuzzDeque's, its in-flight count is check.sh's -count=10 Group/Wait tests'"
  [repro/internal/harness]="the load generator's in-flight and peak gauges, not a protocol"
  [repro/internal/msort]="one countdown per merge; TestSort* compare every distribution and team shape with slices.Sort"
  [repro/internal/reg]="one CAS of the registration word; TestRulesSweep and TestWantsHoldsBruteForce enumerate the rules' inputs"
  [repro/internal/trace]="the event ring's one seqlock; TestRingOverflow and the snapshot tests run under go test -race"
  [repro/internal/wake]="one sleeper tag; TestNoLostWake and check.sh's -count=10 Park|Wake tests cover the protocol"
)

fuzzed=() atomics=()
while read -r pkg dir imports; do
  if grep -qE '^func Fuzz[A-Za-z0-9_]+\(' "${dir}"/*_test.go 2>/dev/null; then
    fuzzed+=("${pkg}")
  fi
  if [[ " ${imports} " == *" sync/atomic "* ]]; then
    atomics+=("${pkg}")
  fi
done < <(go list -f '{{.ImportPath}} {{.Dir}} {{join .Imports " "}}' ./...)

bad=()
for pkg in "${atomics[@]}"; do
  if [[ " ${fuzzed[*]} " != *" ${pkg} "* && -z "${allow[${pkg}]:-}" ]]; then
    bad+=("${pkg} (imports sync/atomic in non-test code, has no fuzz target)")
  fi
done
# The allow-list stays exact: an entry whose package gained a fuzz target or
# dropped sync/atomic goes.
for pkg in "${!allow[@]}"; do
  if [[ " ${fuzzed[*]} " == *" ${pkg} "* || " ${atomics[*]} " != *" ${pkg} "* ]]; then
    bad+=("${pkg} (on the allow-list, but has a fuzz target or no sync/atomic import)")
  fi
done
if [[ "${#bad[@]}" -ne 0 ]]; then
  printf 'fuzz-smoke: FAIL %s\n' "${bad[@]}"
  echo "Add a 'func FuzzXxx(f *testing.F)' to the package, or keep the allow-list in this script to the packages without one, each with its reason."
  exit 1
fi

echo "fuzz-smoke: running bounded fuzz pass (${FUZZTIME} per target) over ${#fuzzed[@]} packages"

# The go toolchain fuzzes one target per invocation; enumerate them.
for pkg in "${fuzzed[@]}"; do
  for t in $(go test -list 'Fuzz.*' "${pkg}" | grep -E '^Fuzz'); do
    echo "fuzz-smoke: ${pkg}/${t}"
    go test "${pkg}" -run '^$' -fuzz "^${t}\$" -fuzztime="${FUZZTIME}" || failures=$((failures + 1))
  done
done

if [[ "${failures}" -ne 0 ]]; then
  echo "fuzz-smoke: FAIL (${failures} fuzz target(s) failed)"
  exit 1
fi

echo "fuzz-smoke: PASS"
