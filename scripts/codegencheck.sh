#!/usr/bin/env bash
set -euo pipefail

# Codegen guard for internal/qsort's block partition. The kernels are fast
# because the scan loops turn each comparison into a number instead of
# jumping on it (partition.go, b2i: `n += b2i(c)` compiles to SETcc). That is
# one compiler idiom: written `if c { n++ }` the count is left to the
# compiler's branch elimination, which makes it a CMOVcc in today's loops and
# made it a jump in the prototype's — 20 % slower than the classic partition
# the change replaced, with every test passing. So: disassemble the int32
# instantiation of the scans and require every element comparison (CMPL; the
# loop bounds are 64-bit CMPQ/TESTQ) to be followed by a SETcc or a CMOVcc,
# four of them in all (two scans × strict and stop-on-equal loops).
#
# Also prints the kernels' addresses mod 64: Go aligns functions to 32 bytes,
# and which half of a cache line HoarePartition starts in has moved
# `smallreq` by 6 % with identical machine code (ROADMAP item 1(d)) — quote
# it for parent and change before reading a ±5 % move on a sort workload.

cd "$(dirname "$0")/.."

if [[ "$(go env GOARCH)" != "amd64" ]]; then
  echo "codegencheck: skipped (GOARCH=$(go env GOARCH); the guard reads amd64 mnemonics)"
  exit 0
fi

dir=$(mktemp -d)
trap 'rm -rf "${dir}"' EXIT
go test -c -o "${dir}/qsort.test" ./internal/qsort

go tool objdump -s 'qsort\.scan(Left|Right)\[go\.shape\.int32\]' "${dir}/qsort.test" |
  awk '
    after_cmp { if ($4 ~ /^(SET|CMOV)/) ok++; else { bad++; print "codegencheck: " fn ": CMPL followed by " $4 " (" $1 ")" }; after_cmp = 0 }
    $1 == "TEXT" { fn = $2 }
    $4 == "CMPL" { after_cmp = 1 }
    END {
      if (bad > 0 || ok != 4) {
        print "codegencheck: FAIL (" ok + 0 " of 4 scan comparisons are branch-free, " bad + 0 " are not)"
        exit 1
      }
      print "codegencheck: 4 of 4 scan comparisons are branch-free (SETcc/CMOVcc)"
    }'

go tool nm "${dir}/qsort.test" |
  grep -E 'qsort\.(HoarePartition|scanLeft|scanRight)\[go\.shape\.int32\]$' |
  while read -r addr _ name; do
    echo "codegencheck: ${name} at 0x${addr}, mod 64 = $((16#${addr} % 64))"
  done
