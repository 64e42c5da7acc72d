package trace

import (
	"testing"
	"time"
)

// waitTicks polls until the sampler has completed at least n rounds.
func waitTicks(t *testing.T, s *Sampler, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Ticks() < n {
		if time.Now().After(deadline) {
			t.Fatalf("sampler reached only %d ticks, want %d", s.Ticks(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSamplerCounts pins the accounting contract: each round reads every
// worker once, so the per-state counts sum to Ticks × workers and split by
// what the get function reported.
func TestSamplerCounts(t *testing.T) {
	const n = 3
	s := NewSampler(n, func(i int) State {
		if i == 0 {
			return StateRun
		}
		return StatePark
	})
	s.Start(2000)
	waitTicks(t, s, 10)
	s.Stop()
	ticks := s.Ticks()
	var sum int64
	for st := State(0); st < NumStates; st++ {
		sum += s.Count(st)
	}
	if want := ticks * n; sum != want {
		t.Fatalf("counts sum to %d, want ticks×workers = %d", sum, want)
	}
	if got := s.Count(StateRun); got != ticks {
		t.Fatalf("run count = %d, want %d (one running worker)", got, ticks)
	}
	if got := s.Count(StatePark); got != 2*ticks {
		t.Fatalf("park count = %d, want %d (two parked workers)", got, 2*ticks)
	}
	if got := s.Count(NumStates + 5); got != 0 {
		t.Fatalf("out-of-range state count = %d, want 0", got)
	}
}

// TestSamplerRestartAccumulates pins that counters survive stop/start
// cycles (the registry counters built on them must stay monotone), that
// Stop is idempotent, and that double Start does not leak a goroutine.
func TestSamplerRestartAccumulates(t *testing.T) {
	s := NewSampler(1, func(int) State { return StateSteal })
	s.Start(2000)
	s.Start(2000) // no-op: already running
	waitTicks(t, s, 5)
	s.Stop()
	s.Stop() // idempotent
	first := s.Count(StateSteal)
	if first < 5 {
		t.Fatalf("first cycle counted %d", first)
	}
	s.Start(2000)
	waitTicks(t, s, first+5)
	s.Stop()
	if got := s.Count(StateSteal); got <= first {
		t.Fatalf("second cycle did not accumulate: %d after %d", got, first)
	}
}

// TestSamplerDefensiveState pins that a corrupt published state (≥
// NumStates) is counted as idle instead of indexing out of bounds.
func TestSamplerDefensiveState(t *testing.T) {
	s := NewSampler(1, func(int) State { return NumStates + 7 })
	s.Start(2000)
	waitTicks(t, s, 3)
	s.Stop()
	if got, ticks := s.Count(StateIdle), s.Ticks(); got != ticks {
		t.Fatalf("corrupt states counted as %d idle over %d ticks", got, ticks)
	}
}
