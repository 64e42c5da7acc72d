package par_test

import (
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/par"
)

// fuzzSched is shared across fuzz executions: scheduler spin-up dominates a
// per-execution scheduler and would throttle the fuzzer to a crawl.
var fuzzSched = sync.OnceValue(func() *core.Scheduler {
	return core.New(core.Options{P: 4})
})

// FuzzScan cross-checks the team scans against their sequential oracles on
// fuzzer-chosen data, team size and scan flavor (wired into
// scripts/fuzz-smoke.sh).
func FuzzScan(f *testing.F) {
	f.Add(uint8(2), false, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(4), true, []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(uint8(1), false, []byte{})
	f.Fuzz(func(t *testing.T, npRaw uint8, exclusive bool, raw []byte) {
		s := fuzzSched()
		np := 1 + int(npRaw)%s.MaxTeam()
		data := make([]int32, len(raw)/4)
		for i := range data {
			data[i] = int32(binary.LittleEndian.Uint32(raw[i*4:]))
		}
		add := func(a, b int32) int32 { return a + b }
		want := append([]int32(nil), data...)
		got := append([]int32(nil), data...)
		var wantTot, gotTot int32
		if exclusive {
			wantTot = par.SeqScanExclusive(0, add, want)
			s.Run(par.ScanExclusive(np, got, 0, add, &gotTot))
		} else {
			wantTot = par.SeqScanInclusive(0, add, want)
			s.Run(par.ScanInclusive(np, got, 0, add, &gotTot))
		}
		if gotTot != wantTot {
			t.Fatalf("np=%d exclusive=%v: total = %d, want %d", np, exclusive, gotTot, wantTot)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("np=%d exclusive=%v: scan differs at %d: %d != %d",
					np, exclusive, i, got[i], want[i])
			}
		}
	})
}

// FuzzPack cross-checks the team compaction against its sequential oracle
// on fuzzer-chosen data, team size and modulus, into a dst of exactly the
// survivor count (a scatter one slot too far panics). keep depends on the
// index it is handed as much as on the value, so a member that passes its
// chunk-relative index instead of the element's packs the wrong elements.
func FuzzPack(f *testing.F) {
	f.Add(uint8(2), uint8(2), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(3), uint8(0), []byte{0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(1), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, npRaw, modRaw uint8, raw []byte) {
		s := fuzzSched()
		np := 1 + int(npRaw)%s.MaxTeam()
		m := 1 + int(modRaw)%5
		keep := func(i int, v byte) bool { return (i+int(v))%m == 0 }

		want := make([]byte, len(raw))
		want = want[:par.SeqPack(raw, want, keep)]

		got := make([]byte, len(want))
		var gotN int
		s.Run(par.Pack(np, raw, got, keep, &gotN))
		checkSlice(t, "fuzz-pack", np, got[:gotN], want)
	})
}
