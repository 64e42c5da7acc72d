package wake

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

const tagA, tagB = 1, 2

// empty reports whether the slot is back in its resting state: nobody
// announced and no token left behind.
func empty(s *Slot) bool { return s.Tag() == 0 && len(s.ch) == 0 }

// within runs fn and fails the test if it is still running after a minute:
// nothing here blocks for long unless the protocol is broken.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatalf("%s: still blocked after a minute", what)
	}
}

// TestSettleTable walks the window between a sleeper's announcement and its
// block: whatever the waker did in it, the sleeper either withdraws or
// consumes exactly one token, never both, and the slot is empty afterwards.
func TestSettleTable(t *testing.T) {
	cases := []struct {
		name      string
		between   func(s *Slot) bool // what happens after Arm, before Settle; reports the re-check's verdict
		after     func(s *Slot)      // what happens while Settle runs (may be nil)
		wantSlept bool
	}{
		{"condition already true, nobody claimed: withdraws",
			func(s *Slot) bool { return true }, nil, false},
		{"claimed and signalled before the re-check: consumes the token",
			func(s *Slot) bool { return s.Wake(tagA) }, nil, true},
		{"claimed before the re-check, signalled after the block: waits for the token",
			func(s *Slot) bool { return s.Claim(tagA) },
			func(s *Slot) { time.Sleep(time.Millisecond); s.Signal() }, true},
		{"nothing happened: sleeps until woken",
			func(s *Slot) bool { return false },
			func(s *Slot) {
				for !s.Wake(tagA) {
					time.Sleep(10 * time.Microsecond)
				}
			}, true},
		{"a waker of another kind does not claim it",
			func(s *Slot) bool { return s.Wake(tagB) || s.Claim(tagB) }, // both false: verdict "not ready"
			func(s *Slot) { time.Sleep(time.Millisecond); s.Wake(tagA) }, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var s Slot
			s.Arm(tagA)
			ready := c.between(&s)
			if c.after != nil {
				go c.after(&s)
			}
			var slept bool
			within(t, "Settle", func() { slept = s.Settle(tagA, ready) })
			if slept != c.wantSlept {
				t.Fatalf("slept = %v, want %v", slept, c.wantSlept)
			}
			if !empty(&s) {
				t.Fatalf("slot not empty afterwards: tag=%d tokens=%d", s.Tag(), len(s.ch))
			}
			if s.Wake(tagA) {
				t.Fatal("woke a sleeper that is gone")
			}
		})
	}
}

func TestArmTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a second sleeper on one slot must panic")
		}
	}()
	var s Slot
	s.Arm(tagA)
	s.Arm(tagA)
}

// TestNoLostWake is the two-sided argument run hot: a waker that sets the
// condition and then looks for the sleeper, against a sleeper that announces
// and then looks at the condition, with no spinning in between. A lost
// wake-up is the deadline; run under -race by scripts/check.sh.
func TestNoLostWake(t *testing.T) {
	const rounds = 5000
	var s Slot
	var cond atomic.Int32
	var wg sync.WaitGroup
	wg.Add(2)
	within(t, "ping-pong", func() {
		go func() { // sleeper: waits for cond == i+1, then acknowledges
			defer wg.Done()
			for i := int32(0); i < rounds; i++ {
				for cond.Load() != 2*i+1 {
					s.Arm(tagA)
					s.Settle(tagA, cond.Load() == 2*i+1)
				}
				cond.Store(2*i + 2)
			}
		}()
		go func() { // waker
			defer wg.Done()
			for i := int32(0); i < rounds; i++ {
				cond.Store(2*i + 1)
				s.Wake(tagA)
				for cond.Load() != 2*i+2 {
					runtime.Gosched()
				}
			}
		}()
		wg.Wait()
	})
	if !empty(&s) {
		t.Fatalf("slot not empty after %d rounds: tag=%d tokens=%d", rounds, s.Tag(), len(s.ch))
	}
}
