package main

import (
	"fmt"
	"slices"
	"testing"
)

// scheduleOf renders the first n requests of every client of a workload (or,
// open loop, the whole schedule of a window) for one seed: sizes, kinds,
// algorithms and due times.
func scheduleOf(t *testing.T, name string, seed uint64, n int) []string {
	t.Helper()
	wl, err := newWorkload(name, fullSizing, 2)
	if err != nil {
		t.Fatal(err)
	}
	sp := wl.spec()
	var out []string
	if sp.open {
		_, rngs := streams(seed, 1)
		for _, rq := range openSchedule(wl, rngs[0], fullSizing.openRate, 2) {
			out = append(out, fmt.Sprintf("%s due=%d %+v", wl.label(rq), rq.Due, rq))
		}
		return out
	}
	_, rngs := streams(seed, sp.clients)
	for c, rng := range rngs {
		for i := 0; i < n; i++ {
			rq := wl.next(rng, i)
			out = append(out, fmt.Sprintf("client %d: %s %+v", c, wl.label(rq), rq))
		}
	}
	return out
}

func TestSameSeedSameSchedule(t *testing.T) {
	for _, name := range workloadNames {
		a, b := scheduleOf(t, name, 7, 500), scheduleOf(t, name, 7, 500)
		if !slices.Equal(a, b) {
			t.Errorf("%s: two schedules of seed 7 differ", name)
		}
		if name == "finegrain" {
			continue // one request shape; the seed only decides the summed values
		}
		if c := scheduleOf(t, name, 8, 500); slices.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same schedule", name)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	gen := func(seed uint64) []input {
		w := &smallreq{sz: tinySizing, p: 2}
		w.prepare(seed)
		return w.pool
	}
	a, b, c := gen(3), gen(3), gen(4)
	for i := range a {
		if !slices.Equal(a[i].data, b[i].data) || a[i].sum != b[i].sum {
			t.Fatalf("input %d differs between two preparations of seed 3", i)
		}
	}
	if slices.Equal(a[0].data, c[0].data) {
		t.Error("seeds 3 and 4 generate the same first input")
	}
	if slices.Equal(a[0].data, a[1].data) {
		t.Error("two pool entries of one seed are the same input")
	}
}

func TestSeedsDiffer(t *testing.T) {
	if defaultSeed == holdoutSeed {
		t.Error("the hold-out seed must not be the default seed")
	}
}
