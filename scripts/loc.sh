#!/usr/bin/env bash
set -euo pipefail

# Non-test Go lines per package and in total — the number ROADMAP's
# "net-negative LoC" refers to, so author and reviewer quote the same one.
# Counted: every tracked or untracked-but-unignored *.go file except
# *_test.go, anything under a testdata/ directory, and the benchmark module
# under bench/ (which a PR may not edit). Lines are physical lines (wc -l):
# comments count, so deleting reason-giving comments is visible as such in
# the diff rather than hidden in the metric.
#
# Usage: scripts/loc.sh [dir]   (default: the repository this script is in)

cd "${1:-$(dirname "$0")/..}"

git ls-files -co --exclude-standard -- '*.go' |
  grep -v -e '_test\.go$' -e '\(^\|/\)testdata/' -e '^bench/' |
  while IFS= read -r f; do
    [[ -f "$f" ]] && printf '%s %s\n' "$(wc -l < "$f")" "$(dirname "$f")"
  done |
  awk '{ n[$2] += $1; total += $1 }
       END { for (p in n) printf "%7d %s\n", n[p], p; printf "%7d total\n", total }' |
  sort -k2
