# Tier-1 gate (ROADMAP.md): build + test, plus vet, lint, and targeted race
# runs. The race package list and vet flags are defined once in
# scripts/checkdefs.sh, shared with scripts/check.sh.
.PHONY: all build test vet lint race check fuzz-smoke tables

RACE_PKGS := $(shell . ./scripts/checkdefs.sh; echo $$RACE_PKGS)
VET_FLAGS := $(shell . ./scripts/checkdefs.sh; echo $$VET_FLAGS)

all: check

build:
	go build ./...

test:
	go test ./...

vet:
	go vet $(VET_FLAGS) ./...

# Invariant linting: the reprolint analyzer suite with its directive
# manifest (noalloc reads the compiler's own escape analysis).
lint:
	go run ./cmd/reprolint ./...

race:
	go test -race $(RACE_PKGS)

# Full verification gate: build, vet, test, race.
check:
	./scripts/check.sh

# Bounded fuzz pass over the workload generators (FUZZTIME=10s default).
fuzz-smoke:
	./scripts/fuzz-smoke.sh

tables:
	go run ./cmd/tables -table 1
