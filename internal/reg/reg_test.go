package reg

import (
	"testing"
	"testing/quick"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(r, a, tm, n uint16) bool {
		in := R{Req: r, Acq: a, Team: tm, Epoch: n}
		return unpack(Pack(in)) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackDistinct(t *testing.T) {
	// Distinct structures pack to distinct words (Pack is injective).
	f := func(x, y R) bool {
		return (x == y) == (Pack(x) == Pack(y))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIdle(t *testing.T) {
	r := Idle(7)
	if r.Req != 1 || r.Acq != 1 || r.Team != 1 || r.Epoch != 7 {
		t.Fatalf("Idle(7) = %v", r)
	}
}

func TestWordCAS(t *testing.T) {
	var w Word
	w.Store(Idle(0))
	old := w.Load()
	next := R{Req: 4, Acq: 1, Team: 1, Epoch: 0}
	if !w.CAS(old, next) {
		t.Fatal("CAS with correct old value failed")
	}
	if w.Load() != next {
		t.Fatalf("Load = %v, want %v", w.Load(), next)
	}
	if w.CAS(old, Idle(9)) {
		t.Fatal("CAS with stale old value succeeded")
	}
	if w.Load() != next {
		t.Fatal("failed CAS modified the word")
	}
}

func TestString(t *testing.T) {
	got := R{Req: 4, Acq: 3, Team: 2, Epoch: 9}.String()
	if got != "{r:4 a:3 t:2 N:9}" {
		t.Fatalf("String = %q", got)
	}
}

func TestSixteenBitFields(t *testing.T) {
	// Max field values survive the packing (the paper packs 4×16 bits).
	in := R{Req: 65535, Acq: 65535, Team: 65535, Epoch: 65535}
	if unpack(Pack(in)) != in {
		t.Fatal("max field values corrupted")
	}
}
