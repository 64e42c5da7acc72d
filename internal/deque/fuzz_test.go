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
// more than MinCapacity and the ring grows under the thieves.
//
// ops: a byte with the high bit set pops (b&0x0f)+1 times, any other pushes
// (b&0x3f)+1 elements. mode: mode%3+1 thieves, batch steals if mode&4 != 0.
func FuzzDeque(f *testing.F) {
	f.Add([]byte{0x3f, 0x3f, 0x81, 0x3f, 0x8f, 0x05}, uint8(0))
	f.Add([]byte{0x00, 0x80, 0x00, 0x80, 0x01, 0x81}, uint8(5))
	f.Add([]byte{0x3f, 0x3f, 0x3f, 0x3f, 0xff, 0x3f, 0xff, 0xff}, uint8(6))
	f.Fuzz(func(t *testing.T, ops []byte, mode uint8) {
		const maxElems = 1 << 12
		total := 0
		for _, op := range ops {
			if op&0x80 == 0 {
				total += int(op&0x3f) + 1
			}
		}
		total = min(total, maxElems)
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

		next := 0
		for _, op := range ops {
			if op&0x80 != 0 {
				for k := int(op&0x0f) + 1; k > 0; k-- {
					take(d.PopBottom())
				}
				continue
			}
			for k := int(op&0x3f) + 1; k > 0 && next < total; k-- {
				vals[next] = next
				d.PushBottom(&vals[next])
				next++
			}
		}
		// PopBottom returns nil only once top has caught up with bottom:
		// everything left was taken by the owner or by a thief's won CAS.
		for take(d.PopBottom()) {
		}
		stop.Store(true)
		wg.Wait()
		for i := range got {
			if c := got[i].Load(); c != 1 {
				t.Fatalf("element %d of %d taken %d times (thieves=%d batch=%v)", i, total, c, thieves, batch)
			}
		}
	})
}
