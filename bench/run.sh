#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything it writes stays inside the checkout: the Go build cache and the
# binary under bench/.build, results under bench/out.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/bench/.build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# -buildvcs=false: the checkout the driver runs in is not a git repository.
go -C bench build -buildvcs=false -o "$build/bench" . >&2
exec "$build/bench" "$@"
