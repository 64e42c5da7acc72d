#!/usr/bin/env bash
set -euo pipefail

# Codegen guard for the branch-free kernels: internal/qsort's block partition
# here, the query kernels' compaction loops, the samplesort's tree walk and the
# sequential sort's network and merges further down. The partition is fast
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

# The query kernels' count and scatter loops (internal/query/filter.go,
# internal/par/pack.go) hang on the same idiom one step removed: the number is
# the answer of a caller-supplied predicate, `c += par.B2i(pred(v))`, so the
# predicate's indirect CALL must be followed by a MOVZX/SETcc of its result —
# not by a conditional jump on it, and not by a CALL of B2i, which is what a
# helper the compiler declines to inline into the instantiation costs (the
# prototype's was, and Filter ran 60 % slower than the loops this replaced
# with every test passing). Whether it is inlined depends on the package the
# generic is instantiated from, so read the binary the benchmark runs: bench/
# instantiates both for int32. Two predicate calls each, count and scatter.
go -C bench build -buildvcs=false -o "${dir}/bench" .

# check_kernel <source file> <declaration> <symbol regexp>: only the
# instructions of the method's own lines count — the sequential oracle is
# inlined into its team-size-1 path and is the plain `if` loop on purpose.
check_kernel() {
  local file=$1 decl=$2 sym=$3 first last
  first=$(grep -n -F "${decl}" "${file}" | head -n1 | cut -d: -f1)
  last=$(awk -v first="${first:-0}" 'NR > first && /^}/ { print NR; exit }' "${file}")
  go tool objdump -s "${sym}" "${dir}/bench" |
    awk -v want=2 -v src="$(basename "${file}")" -v first="${first:-0}" -v last="${last:-0}" '
      $1 == "TEXT" { fn = $2; next }
      { split($1, at, ":"); if (at[1] != src || at[2] < first || at[2] > last) { after_call = 0; next } }
      after_call { if ($4 ~ /^(MOVZX|SET)/) ok++; else { bad++; print "codegencheck: " fn ": predicate CALL followed by " $4 " (" $1 ")" }; after_call = 0 }
      $4 == "CALL" && $5 ~ /\.[bB]2i/ { bad++; print "codegencheck: " fn ": B2i is a CALL, not inlined (" $1 ")" }
      $4 == "CALL" && $5 !~ /\(SB\)$/ { after_call = 1 }
      END {
        if (fn == "") { fn = "'"${decl}"'"; print "codegencheck: " fn ": no int32 instantiation in the benchmark binary" }
        if (bad > 0 || ok != want) {
          print "codegencheck: FAIL " fn " (" ok + 0 " of " want " predicate calls are counted branch-free, " bad + 0 " are not)"
          exit 1
        }
        print "codegencheck: " fn ": " ok " of " want " predicate calls are counted branch-free (MOVZX/SETcc)"
      }'
}
check_kernel internal/query/filter.go 'func (f *Filterer[T]) Filter(' 'query\.\(\*Filterer\[go\.shape\.int32\]\)\.Filter$'
check_kernel internal/par/pack.go 'func (p *Packer[T]) Pack(' 'par\.\(\*Packer\[go\.shape\.int32\]\)\.Pack$'

# The samplesort's classifier (internal/ssort/ssort.go, classify) is the same
# idiom on a tree walk, `j = 2*j + par.B2i(tree[j] <= v)`: inlined into the
# count and the scatter loop, each of its two copies must compare with CMPL and
# take the answer with SETcc. With the helper declared in internal/ssort
# instead, the package's own test binary showed exactly that and the binary
# built here had `SETLE; CALL ssort.b2i` — no gain on openloop, every test
# green. Keyed on classify's source lines, so it holds whether count and
# scatter are symbols of their own or inlined into (*task).Run.
check_tree_walk() {
  local file=internal/ssort/ssort.go decl='func classify[' first last
  first=$(grep -n -F "${decl}" "${file}" | head -n1 | cut -d: -f1)
  last=$(awk -v first="${first:-0}" 'NR > first && /^}/ { print NR; exit }' "${file}")
  go tool objdump -s 'internal/ssort\..*\[go\.shape\.int32\]' "${dir}/bench" |
    awk -v want=2 -v src="$(basename "${file}")" -v first="${first:-0}" -v last="${last:-0}" '
      $1 == "TEXT" { fn = $2; next }
      $4 == "CALL" && $5 ~ /\.[bB]2i/ { bad++; print "codegencheck: " fn ": B2i is a CALL, not inlined (" $1 ")" }
      { split($1, at, ":"); if (at[1] != src || at[2] < first || at[2] > last) { after_cmp = 0; next } }
      after_cmp { if ($4 ~ /^SET/) { ok++; seen = seen " " fn } else { bad++; print "codegencheck: " fn ": tree-walk CMPL followed by " $4 " (" $1 ")" }; after_cmp = 0 }
      $4 == "CMPL" { after_cmp = 1 }
      END {
        if (bad > 0 || ok != want) {
          print "codegencheck: FAIL ssort.classify (" ok + 0 " of " want " tree-walk comparisons are branch-free, " bad + 0 " are not; int32 instantiation in the benchmark binary)"
          exit 1
        }
        print "codegencheck: ssort.classify: " ok " of " want " tree-walk comparisons are branch-free (CMPL; SETcc) in" seen
      }'
}
check_tree_walk

# The sequential sort's base case (internal/qsort/seq.go) below smallMax:
# sort8's 19 exchanges are `lo, hi := a, b; if b < a { lo = b }; if b < a
# { hi = a }` inlined from cswap — written `if b < a { return b, a }` the same
# helper compiles to 17 JL and the network sorts 8 elements slower than the
# insertion sort it replaced — and merge advances its heads by the comparison's
# 0/1 and selects with a conditional move. Read in the benchmark binary, whose
# int32 instantiation is the one every sort workload runs: sort8 holds exactly
# 19 CMPL, each followed by CMOVcc (a register copy may sit between) and no
# conditional jump from the first to the last; every CMPL of merge (two in the
# two-ended loop, one in the loop that merges what is left between the heads)
# is followed by SETcc or CMOVcc.
go tool objdump -s 'qsort\.(sort8|merge)\[go\.shape\.int32\]$' "${dir}/bench" |
  awk '
    function fail(msg) { bad++; print "codegencheck: " fn ": " msg " (" $1 " at " $2 ")" }
    $1 == "TEXT" { fn = $2; sub(/\(SB\)$/, "", fn); net = (fn ~ /sort8/); next }
    after_cmp && $4 ~ /^MOV/ { next }
    after_cmp { if ($4 ~ /^CMOV/ || (!net && $4 ~ /^SET/)) ok[fn]++; else fail("element CMPL followed by " $4); after_cmp = 0 }
    net && ok[fn] > 0 && ok[fn] < 19 && $4 ~ /^J/ && $4 != "JMP" { fail("conditional jump " $4 " inside the network") }
    $4 == "CMPL" { after_cmp = 1 }
    END {
      for (f in ok) { n++; want = (f ~ /sort8/) ? 19 : 3; if (ok[f] != want) { bad++; print "codegencheck: " f ": " ok[f] " branch-free element comparisons, want " want } }
      if (bad > 0 || n != 2) {
        print "codegencheck: FAIL (sort8 and merge, int32 instantiation in the benchmark binary: " n + 0 " of 2 symbols found, " bad + 0 " defects)"
        exit 1
      }
      print "codegencheck: sort8: 19 of 19 exchanges are CMPL; CMOVcc with no jump between them; merge: 3 of 3 element comparisons are branch-free (SETcc/CMOVcc)"
    }'

go tool nm "${dir}/qsort.test" |
  grep -E 'qsort\.(HoarePartition|scanLeft|scanRight)\[go\.shape\.int32\]$' |
  while read -r addr _ name; do
    echo "codegencheck: ${name} at 0x${addr}, mod 64 = $((16#${addr} % 64))"
  done
