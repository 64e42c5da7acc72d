package query_test

import (
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/qsort"
	"repro/internal/query"
)

// fuzzSched is shared across fuzz executions: scheduler spin-up dominates a
// per-execution scheduler and would throttle the fuzzer to a crawl.
var fuzzSched = sync.OnceValue(func() *core.Scheduler {
	return core.New(core.Options{P: 4})
})

// fuzzInts decodes the fuzzer's raw bytes into the int32 element stream the
// operators consume.
func fuzzInts(raw []byte) []int32 {
	data := make([]int32, len(raw)/4)
	for i := range data {
		data[i] = int32(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	return data
}

// FuzzFilter cross-checks the team filter against its sequential oracle on
// fuzzer-chosen data, team size and predicate modulus (wired into
// scripts/fuzz-smoke.sh).
func FuzzFilter(f *testing.F) {
	f.Add(uint8(2), uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(7), uint8(0), []byte{0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(1), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, npRaw, modRaw uint8, raw []byte) {
		s := fuzzSched()
		np := 1 + int(npRaw)%s.MaxTeam()
		mod := 1 + int32(modRaw)%7
		pred := func(v int32) bool { return v%mod == 0 }
		src := fuzzInts(raw)

		want := make([]int32, len(src))
		want = want[:query.SeqFilter(src, want, pred)]

		got := make([]int32, len(want)) // exact fit: a scatter one slot too far panics
		var gotN int
		s.Run(query.Filter(np, src, got, pred, &gotN))
		checkSlice(t, "fuzz-filter", np, got[:gotN], want)
	})
}

// FuzzTopK cross-checks the team selection against its sequential oracle on
// duplicate-dense data (the fuzzer's bytes folded into 16 values, so the
// scan's threshold meets ties all the time), fuzzer-chosen team size and
// every k from 0 to one more than there are elements.
func FuzzTopK(f *testing.F) {
	f.Add(uint8(2), uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(3), uint8(0), []byte{9, 9, 9, 9})
	f.Add(uint8(1), uint8(255), []byte{})
	f.Fuzz(func(t *testing.T, npRaw, kRaw uint8, raw []byte) {
		s := fuzzSched()
		np := 1 + int(npRaw)%s.MaxTeam()
		src := make([]int32, len(raw))
		for i, b := range raw {
			src[i] = int32(b%16) - 8
		}
		k := int(kRaw) % (len(src) + 2)

		want := make([]int32, k)
		want = want[:query.SeqTopK(src, want, k)]

		got := make([]int32, k)
		var gotN int
		s.Run(query.TopK(np, src, got, k, &gotN))
		checkSlice(t, "fuzz-topk", np, got[:gotN], want)
	})
}

// FuzzGroupBy cross-checks the team group-by against its sequential oracle
// on fuzzer-chosen data, team size and bucket count; the scatter is stable,
// so the permutation (not just the histogram) must match exactly.
func FuzzGroupBy(f *testing.F) {
	f.Add(uint8(3), uint8(16), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2})
	f.Add(uint8(1), uint8(1), []byte{0, 0, 0, 0})
	f.Add(uint8(5), uint8(255), []byte{})
	f.Fuzz(func(t *testing.T, npRaw, nbRaw uint8, raw []byte) {
		s := fuzzSched()
		np := 1 + int(npRaw)%s.MaxTeam()
		nb := 1 + int(nbRaw)%64
		key := func(v int32) int { return int(uint32(v)) % nb }
		src := fuzzInts(raw)

		wantGrouped := make([]int32, len(src))
		wantStarts := query.SeqGroupBy(src, wantGrouped, nb, key)

		gotGrouped := make([]int32, len(src))
		gotStarts := make([]int, nb+1)
		s.Run(query.GroupBy(np, src, gotGrouped, nb, key, gotStarts))
		checkSlice(t, "fuzz-groupby-starts", np, gotStarts, wantStarts)
		checkSlice(t, "fuzz-groupby", np, gotGrouped, wantGrouped)
	})
}

// FuzzMergeJoin cross-checks the team merge join against its sequential
// oracle on fuzzer-chosen (then sorted) sides and team size.
func FuzzMergeJoin(f *testing.F) {
	f.Add(uint8(2), []byte{1, 2, 3, 4, 1, 2, 3, 4}, []byte{1, 2, 3, 4})
	f.Add(uint8(4), []byte{}, []byte{5, 0, 0, 0})
	f.Add(uint8(1), []byte{7, 0, 0, 0, 7, 0, 0, 0}, []byte{7, 0, 0, 0})
	f.Fuzz(func(t *testing.T, npRaw uint8, rawA, rawB []byte) {
		s := fuzzSched()
		np := 1 + int(npRaw)%s.MaxTeam()
		a, b := fuzzInts(rawA), fuzzInts(rawB)
		qsort.Introsort(a)
		qsort.Introsort(b)

		cap := min(len(a), len(b)) // ≤ one run per matched distinct key
		want := make([]query.JoinRun[int32], cap)
		want = want[:query.SeqMergeJoin(a, b, want)]

		got := make([]query.JoinRun[int32], cap)
		var gotN int
		s.Run(query.MergeJoin(np, a, b, got, &gotN))
		if gotN != len(want) {
			t.Fatalf("np=%d: %d runs, want %d", np, gotN, len(want))
		}
		for i, r := range got[:gotN] {
			if r != want[i] {
				t.Fatalf("np=%d: run %d = %+v, want %+v", np, i, r, want[i])
			}
		}
	})
}

// FuzzPlan builds a fuzzer-chosen operator chain and cross-checks one
// execution against the composition of the sequential oracles, mirroring
// Plan.Execute's stage semantics (Aggregate passes the stream through;
// GroupBy reorders it; Filter and TopK narrow it).
func FuzzPlan(f *testing.F) {
	f.Add(uint8(2), []byte{0, 2, 3}, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(3), []byte{1}, []byte{9, 8, 7, 6, 5, 4, 3, 2})
	f.Add(uint8(1), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, npRaw uint8, ops, raw []byte) {
		s := fuzzSched()
		np := 1 + int(npRaw)%s.MaxTeam()
		src := fuzzInts(raw)
		if len(ops) > 4 {
			ops = ops[:4]
		}
		const (
			planNB = 13
			planK  = 5
		)
		key := func(v int32) int { return int(uint32(v)) % planNB }
		pred := func(v int32) bool { return v%3 != 0 }

		p := query.NewPlan[int32](len(src), np, 1)
		cur := src // oracle stream, composed stage by stage
		var wantStarts []int
		var wantAgg []int64
		for _, op := range ops {
			switch op % 4 {
			case 0:
				p.Filter(pred)
				next := make([]int32, len(cur))
				cur = next[:query.SeqFilter(cur, next, pred)]
			case 1:
				p.GroupBy(planNB, key)
				next := make([]int32, len(cur))
				wantStarts = query.SeqGroupBy(cur, next, planNB, key)
				cur = next
			case 2:
				p.Aggregate(planNB, key, 0, lift, comb)
				wantAgg = query.SeqAggregate(cur, planNB, int64(0), lift, key)
			case 3:
				p.TopK(planK)
				next := make([]int32, planK)
				cur = next[:query.SeqTopK(cur, next, planK)]
			}
		}

		g := s.NewGroup()
		res := execute(t, p, g, src)
		checkSlice(t, "fuzz-plan-out", np, res.Out, cur)
		checkSlice(t, "fuzz-plan-starts", np, res.Starts, wantStarts)
		checkSlice(t, "fuzz-plan-agg", np, res.Aggregates, wantAgg)
	})
}
