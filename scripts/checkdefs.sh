# Shared verification-gate definitions. Sourced by scripts/check.sh and
# queried by the Makefile (vet/race targets), so the two entry points cannot
# drift. This file must stay `sh`-sourceable: plain VAR="..." assignments only.

# Packages run under the race detector. The list covers the
# admission-control and quiescence tests (the whitebox/flood admission tests
# and spawn-vs-shutdown races in ./internal/core, the Runtime-level
# bounded-flood and SortMany tests in the root package) plus the hot-path
# recycling machinery: the node/ctx free lists, the busy-group set and
# TaskGroup's owner-local count in ./internal/core, the Chase–Lev
# protocol under concurrent thieves in ./internal/deque (FuzzDeque's seeds), the
# pooled spawn wrappers of the three sorting packages, the team-collective
# analytics operators in ./internal/query (barrier-separated phases over
# shared state), the per-field-atomic histogram/registry read paths in
# ./internal/stats, the seqlock-stamped event rings and sampling profiler
# in ./internal/trace, the fault-injection chaos stress in
# ./internal/chaos (cancel storms racing revocation-at-take against the
# admission path under injected stalls), the baseline work-stealer in
# ./internal/classic (lock-free deques under both steal policies), and the
# hand-written atomics of the wake slot and of the barrier and countdown
# built on it in ./internal/wake and ./internal/teamsync.
RACE_PKGS=". ./internal/chaos ./internal/classic ./internal/core ./internal/deque ./internal/dist ./internal/dist/distpar ./internal/harness ./internal/msort ./internal/par ./internal/qsort ./internal/query ./internal/ssort ./internal/stats ./internal/teamsync ./internal/trace ./internal/wake"

# Explicit vet configuration: -tests=true keeps _test.go files in scope (the
# race-condition regression tests lean on vet's copylocks/atomic checks as
# much as the production code does). Listing no analyzer flags keeps the full
# default analyzer suite enabled — naming individual analyzers would silently
# disable the rest.
VET_FLAGS="-tests=true"
