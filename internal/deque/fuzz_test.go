package deque

import (
	"sync"
	"sync/atomic"
	"testing"
)

// FuzzDeque runs a fuzzed owner schedule of pushes and pops against one to
// three concurrent thieves — all popping the top, or all stealing batches
// into a deque of their own — and checks that every pushed element is taken
// exactly once. A push byte adds up to 64 elements, so a few in a row hold
// more than MinCapacity and the ring grows under the thieves. A wrap byte
// holds the depth at most (b&0x3f)+1 ≤ MinCapacity — below the capacity, so
// the ring does not grow — while the indices wrap the ring 8 times: the
// owner pushes 8·capacity elements and, whenever the deque is that deep,
// takes one from the top itself, so the laps finish whatever the thieves do.
// That is where the owner's plain slot store meets thieves that read the
// slot one lap earlier (package doc).
//
// ops: a byte with the high bit set pops (b&0x0f)+1 times, one with 0x40 set
// is a wrap phase, any other pushes (b&0x3f)+1 elements. mode: mode%3+1
// thieves, batch steals if mode&4 != 0.
func FuzzDeque(f *testing.F) {
	f.Add([]byte{0x3f, 0x3f, 0x81, 0x3f, 0x8f, 0x05}, uint8(0))
	f.Add([]byte{0x00, 0x80, 0x00, 0x80, 0x01, 0x81}, uint8(5))
	f.Add([]byte{0x3f, 0x3f, 0x3f, 0x3f, 0xff, 0x3f, 0xff, 0xff}, uint8(6))
	f.Add([]byte{0x7f, 0x05, 0x7e, 0x81, 0x40}, uint8(1))
	f.Add([]byte{0x3f, 0x3f, 0x3f, 0x7d, 0x8f, 0x70}, uint8(6))
	f.Fuzz(func(t *testing.T, ops []byte, mode uint8) {
		// A wrap phase takes 8·capacity elements of the budget; the ring
		// grows only under push bytes, to at most 2·maxElems, so a
		// budget of maxWrap holds at least one full phase.
		const maxElems, maxWrap = 1 << 12, 1 << 16
		total, wraps := 0, false
		for _, op := range ops {
			switch {
			case op&0x80 != 0:
			case op&0x40 != 0:
				wraps = true
			default:
				total += int(op&0x3f) + 1
			}
		}
		total = min(total, maxElems)
		if wraps {
			total = maxWrap
		}
		thieves, batch := int(mode%3)+1, mode&4 != 0

		d := New[int]()
		vals := make([]int, total)
		got := make([]atomic.Int32, total)
		take := func(v *int) bool {
			if v == nil {
				return false
			}
			got[*v].Add(1)
			return true
		}
		var stop atomic.Bool
		var wg sync.WaitGroup
		for i := 0; i < thieves; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				own := New[int]()
				for !stop.Load() {
					if !batch {
						take(d.PopTop())
						continue
					}
					last, _ := Steal(d, own, 4)
					take(last)
					for take(own.PopBottom()) {
					}
				}
			}()
		}

		next, pushed := 0, 0
		push := func() {
			vals[next] = next
			d.PushBottom(&vals[next])
			next++
		}
		for _, op := range ops {
			switch {
			case op&0x80 != 0:
				for k := int(op&0x0f) + 1; k > 0; k-- {
					take(d.PopBottom())
				}
			case op&0x40 != 0:
				depth := int(op&0x3f) + 1
				for k := 8 * d.arr.Load().cap(); k > 0 && next < total; k-- {
					for d.Size() >= depth {
						take(d.PopTop())
					}
					push()
				}
			default:
				for k := int(op&0x3f) + 1; k > 0 && pushed < maxElems && next < total; k-- {
					push()
					pushed++
				}
			}
		}
		// PopBottom returns nil only once top has caught up with bottom:
		// everything left was taken by the owner or by a thief's won CAS.
		for take(d.PopBottom()) {
		}
		stop.Store(true)
		wg.Wait()
		for i := range got[:next] {
			if c := got[i].Load(); c != 1 {
				t.Fatalf("element %d of %d taken %d times (thieves=%d batch=%v)", i, next, c, thieves, batch)
			}
		}
	})
}
