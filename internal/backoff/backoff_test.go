package backoff

import (
	"testing"
	"time"
)

func TestEscalation(t *testing.T) {
	var b Backoff
	// Spin + yield rounds must be fast.
	start := time.Now()
	for i := 0; i < spinRounds+yieldRounds; i++ {
		b.Wait()
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("spin/yield rounds took %v", d)
	}
	if b.Attempts() != spinRounds+yieldRounds {
		t.Fatalf("Attempts = %d", b.Attempts())
	}
	// First sleep round must be at least Min.
	start = time.Now()
	b.Wait()
	if d := time.Since(start); d < Min {
		t.Fatalf("first sleep %v < min %v", d, Min)
	}
}

func TestReset(t *testing.T) {
	var b Backoff
	for i := 0; i < 20; i++ {
		b.Wait()
	}
	b.Reset()
	if b.Attempts() != 0 {
		t.Fatalf("Attempts after Reset = %d", b.Attempts())
	}
	start := time.Now()
	b.Wait() // back to spinning
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Fatalf("post-reset wait took %v, expected a spin", d)
	}
}

// TestPauseBudget pins the predicate the parking worker relies on: Pause
// reports true for exactly the spin and yield rounds, then false without
// escalating or sleeping, until Reset.
func TestPauseBudget(t *testing.T) {
	var b Backoff
	for i := 0; i < spinRounds+yieldRounds; i++ {
		if !b.Pause() {
			t.Fatalf("Pause reported the budget spent after %d rounds", i)
		}
	}
	start := time.Now()
	for i := 0; i < 1000; i++ {
		if b.Pause() {
			t.Fatal("Pause performed a round past the budget")
		}
	}
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Fatalf("1000 spent Pause calls took %v; Pause must never sleep", d)
	}
	if b.Attempts() != spinRounds+yieldRounds {
		t.Fatalf("a spent Pause escalated: Attempts = %d", b.Attempts())
	}
	b.Reset()
	if !b.Pause() {
		t.Fatal("Pause after Reset reported the budget spent")
	}
}

// TestSleepCap drives deep into the sleep regime: however far the backoff has
// escalated (including past the point where the shift overflows), one wait
// stays near Max. (TestEscalation covers the Min end.)
func TestSleepCap(t *testing.T) {
	var b Backoff
	for _, n := range []int{spinRounds + yieldRounds + 20, spinRounds + yieldRounds + 70} {
		b.n = n // skip the seconds of sleeping it takes to get here
		start := time.Now()
		b.Wait()
		if d := time.Since(start); d < Max/2 || d > 20*Max {
			t.Fatalf("wait at n = %d took %v, want ≈ Max = %v", n, d, Max)
		}
	}
}
