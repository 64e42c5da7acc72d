# Tier-1 gate (ROADMAP.md): build + test, plus vet and race runs.
.PHONY: all build test vet race check fuzz-smoke tables

all: check

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

race:
	go test -race ./...

# Full verification gate: build, vet, test, race.
check:
	./scripts/check.sh

# Bounded fuzz pass over the workload generators (FUZZTIME=10s default).
fuzz-smoke:
	./scripts/fuzz-smoke.sh

tables:
	go run ./cmd/tables -table 1
