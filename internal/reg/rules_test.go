package reg

import (
	"fmt"
	"testing"

	"repro/internal/topo"
)

// valid reports whether r is a word the scheduler can hold: 1 ≤ t ≤ a ≤ r.
func valid(r R) bool { return 1 <= r.Team && r.Team <= r.Acq && r.Acq <= r.Req }

func pow2(n int) bool { return n >= 1 && n&(n-1) == 0 }

// rule is one transition of §3. next applies the rule to word r with
// argument n (the target size where the rule takes one). oracle is the word
// internal/core built by hand before the rules moved into this package,
// copied from coordinate.go and poll.go. applies is the precondition under
// which the scheduler CASes the result in.
type rule struct {
	name    string
	next    func(r R, n int) (R, bool)
	oracle  func(r R, n int) (R, bool)
	applies func(r R, n int) bool
	bumps   bool // N ← N+1; otherwise N is kept
}

func advertise(r R, target int) (R, bool) { return r.Advertise(target), true }

func advertiseOracle(r R, target int) (R, bool) {
	nr := r
	nr.Req = uint16(target)
	if int(r.Req) > target {
		nr.Acq = r.Team
		nr.Epoch = r.Epoch + 1
	}
	return nr, true
}

var rules = []rule{
	{"register (tryRegister)",
		func(r R, _ int) (R, bool) { return r.Register() },
		func(rc R, _ int) (R, bool) {
			need := int(rc.Req)
			if need <= 1 || int(rc.Acq) >= need {
				return R{}, false
			}
			nr := rc
			nr.Acq++
			return nr, true
		},
		func(r R, _ int) bool { return r.Req > 1 && r.Acq < r.Req }, false},
	{"deregister (leave)",
		func(r R, _ int) (R, bool) { return r.Deregister(), true },
		func(rc R, _ int) (R, bool) {
			nr := rc
			nr.Acq--
			return nr, true
		},
		// A registrant outside the fixed team holds a unit beyond t.
		func(r R, _ int) bool { return r.Acq > r.Team }, false},
	{"grow-advertise (coordinate)", advertise, advertiseOracle,
		func(r R, target int) bool { return pow2(target) && int(r.Team) < target && int(r.Req) < target }, false},
	{"shrink-advertise (coordinate)", advertise, advertiseOracle,
		func(r R, target int) bool { return pow2(target) && int(r.Team) < target && int(r.Req) > target }, true},
	{"fix (gather)",
		func(r R, _ int) (R, bool) { return r.Fix() },
		func(r R, _ int) (R, bool) {
			target := int(r.Req)
			if int(r.Acq) >= target {
				return R{
					Req: uint16(target), Acq: uint16(target),
					Team: uint16(target), Epoch: r.Epoch,
				}, true
			}
			return R{}, false
		},
		func(r R, _ int) bool { return r.Req > 1 && r.Acq >= r.Req && r.Team < r.Req }, false},
	{"preempt (gather)",
		func(r R, _ int) (R, bool) { return r.Reset(int(r.Team)), true },
		func(r R, _ int) (R, bool) {
			t := r.Team
			if t < 1 {
				t = 1
			}
			return R{Req: t, Acq: t, Team: t, Epoch: r.Epoch + 1}, true
		},
		func(r R, _ int) bool { return r.Team < r.Req }, true},
	{"solo-path revoke (coordinate)",
		func(r R, _ int) (R, bool) { return r.Reset(1), true },
		func(r R, _ int) (R, bool) { return R{Req: 1, Acq: 1, Team: 1, Epoch: r.Epoch + 1}, true },
		func(r R, _ int) bool { return r.Team <= 1 && (r.Req != 1 || r.Acq != 1) }, true},
	{"shrink (coordinate)",
		func(r R, target int) (R, bool) { return r.Reset(target), true },
		func(r R, target int) (R, bool) {
			return R{
				Req: uint16(target), Acq: uint16(target),
				Team: uint16(target), Epoch: r.Epoch + 1,
			}, true
		},
		func(r R, target int) bool { return pow2(target) && int(r.Team) > target }, true},
	{"disband (dropCoordination)",
		func(r R, _ int) (R, bool) { return r.Reset(1), true },
		func(r R, _ int) (R, bool) { return Idle(r.Epoch + 1), true },
		func(r R, _ int) bool { return r.Req != 1 || r.Acq != 1 || r.Team != 1 }, true},
	{"conflict-yield (switchCoordinator)",
		func(r R, _ int) (R, bool) { return r.Reset(1), true },
		func(r R, _ int) (R, bool) { return Idle(r.Epoch + 1), true },
		func(r R, _ int) bool { return r.Req > 1 }, true},
}

// TestRulesSweep applies every rule to every word with r, a, t ∈ [0, 8] at
// three epochs (one of them wrapping) and every target in [0, 8]. On a valid
// word whose rule the scheduler applies it checks that the rule returns the
// parent's word, that the result is valid again, and that N moves by exactly
// the rule's bump. On any valid word the rule and its oracle agree on
// whether the word can be produced at all.
func TestRulesSweep(t *testing.T) {
	for _, ru := range rules {
		applied := 0
		for _, epoch := range []uint16{0, 1, 65535} {
			for req := uint16(0); req <= 8; req++ {
				for acq := uint16(0); acq <= 8; acq++ {
					for team := uint16(0); team <= 8; team++ {
						r := R{Req: req, Acq: acq, Team: team, Epoch: epoch}
						if !valid(r) {
							continue
						}
						for n := 0; n <= 8; n++ {
							got, ok := ru.next(r, n)
							want, wantOK := ru.oracle(r, n)
							where := fmt.Sprintf("%s on %v, n = %d", ru.name, r, n)
							if ok != wantOK {
								t.Fatalf("%s: ok = %v, the parent's construction says %v", where, ok, wantOK)
							}
							if !ru.applies(r, n) {
								continue
							}
							applied++
							if !ok {
								t.Fatalf("%s: rule refused a word the scheduler writes", where)
							}
							if got != want {
								t.Fatalf("%s = %v, the parent built %v", where, got, want)
							}
							if !valid(got) {
								t.Fatalf("%s = %v breaks 1 ≤ t ≤ a ≤ r", where, got)
							}
							bump := uint16(0)
							if ru.bumps {
								bump = 1
							}
							if got.Epoch-r.Epoch != bump {
								t.Fatalf("%s = %v: N moved by %d, want %d", where, got, got.Epoch-r.Epoch, bump)
							}
						}
					}
				}
			}
		}
		if applied == 0 {
			t.Fatalf("%s: the sweep never reached a word the scheduler applies it to", ru.name)
		}
	}
}

// inBlock is the brute-force block check: w lies in the size-n block of
// consecutive ids that contains c.
func inBlock(c, w, n int) bool {
	for lo, id := c/n*n, c/n*n; id < lo+n; id++ {
		if id == w {
			return true
		}
	}
	return false
}

// TestWantsHoldsBruteForce holds Wants and Holds to the block check for every
// pair of workers of P ≤ 8 and every power-of-two size.
func TestWantsHoldsBruteForce(t *testing.T) {
	for c := 0; c < 8; c++ {
		for w := 0; w < 8; w++ {
			for _, n := range []int{0, 1, 2, 4, 8} {
				for acq := 0; acq <= 8; acq++ {
					r := R{Req: uint16(n), Acq: uint16(acq), Team: 1}
					want := n > 1 && acq < n && inBlock(c, w, n)
					if got := r.Wants(c, w); got != want {
						t.Fatalf("%v.Wants(%d, %d) = %v, want %v", r, c, w, got, want)
					}
				}
				r := R{Req: 8, Acq: 8, Team: uint16(n)}
				if got, want := r.Holds(c, w), n > 1 && inBlock(c, w, n); got != want {
					t.Fatalf("%v.Holds(%d, %d) = %v, want %v", r, c, w, got, want)
				}
			}
		}
	}
}

// TestBeats holds Lemma 3's rule to the switch pollPartners ran before it
// moved here, over every triple of workers of P = 8 and every size.
func TestBeats(t *testing.T) {
	oracle := func(xr, x, c, w, rneed int) bool {
		switch {
		case xr == rneed:
			return x != c && topo.Overlap(x, c, rneed) && x < c
		case xr > 1 && xr < rneed:
			return topo.Overlap(x, w, xr)
		}
		return false
	}
	for x := 0; x < 8; x++ {
		for c := 0; c < 8; c++ {
			for w := 0; w < 8; w++ {
				for _, xr := range []int{0, 1, 2, 4, 8} {
					for _, rneed := range []int{2, 4, 8} {
						r := R{Req: uint16(xr), Acq: 1, Team: 1}
						if got, want := r.Beats(x, c, w, rneed), oracle(xr, x, c, w, rneed); got != want {
							t.Fatalf("%v.Beats(%d, %d, %d, %d) = %v, want %v", r, x, c, w, rneed, got, want)
						}
					}
				}
			}
		}
	}
	// The tie-break is a total order: of two same-size coordinators of one
	// block exactly one beats the other.
	r := R{Req: 4, Acq: 1, Team: 1}
	if r.Beats(0, 2, 3, 4) == r.Beats(2, 0, 1, 4) {
		t.Fatal("same-size conflict between 0 and 2 has no single winner")
	}
}
