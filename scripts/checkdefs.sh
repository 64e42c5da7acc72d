# Shared verification-gate definitions. Sourced by scripts/check.sh and
# queried by the Makefile (vet/race targets), so the two entry points cannot
# drift. This file must stay `sh`-sourceable: plain VAR="..." assignments only.

# Packages run under the race detector: all of them, since the -race run is
# the only dynamic check on how the atomics are used.
RACE_PKGS="./..."

# Explicit vet configuration: -tests=true keeps _test.go files in scope (the
# race-condition regression tests lean on vet's copylocks/atomic checks as
# much as the production code does). Listing no analyzer flags keeps the full
# default analyzer suite enabled — naming individual analyzers would silently
# disable the rest.
VET_FLAGS="-tests=true"
