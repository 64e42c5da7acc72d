package teamsync

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wake"
)

func TestBarrierSinglePhase(t *testing.T) {
	const n = 8
	b := NewBarrier(n)
	var before atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			before.Add(1)
			b.Wait()
			if got := before.Load(); got != n {
				t.Errorf("after barrier: before=%d, want %d", got, n)
			}
		}()
	}
	wg.Wait()
}

func TestBarrierManyPhases(t *testing.T) {
	const n = 4
	const phases = 200
	b := NewBarrier(n)
	var counter atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ph := 0; ph < phases; ph++ {
				counter.Add(1)
				b.Wait()
				// Counter must be an exact multiple of n at phase boundaries.
				if c := counter.Load(); c < int64((ph+1)*n) {
					t.Errorf("phase %d: counter=%d too small", ph, c)
					return
				}
				b.Wait()
			}
		}()
	}
	wg.Wait()
	if c := counter.Load(); c != phases*n {
		t.Fatalf("counter = %d, want %d", c, phases*n)
	}
}

func TestBarrierLastArriverFlag(t *testing.T) {
	const n = 6
	b := NewBarrier(n)
	var lastCount atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.Wait() {
				lastCount.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := lastCount.Load(); got != 1 {
		t.Fatalf("%d goroutines saw the last-arriver flag, want exactly 1", got)
	}
}

func TestBarrierN1(t *testing.T) {
	b := NewBarrier(1)
	for i := 0; i < 10; i++ {
		if !b.Wait() {
			t.Fatal("sole participant must always be the releaser")
		}
	}
}

func TestBarrierPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBarrier(0)
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Init(5)
	var zero atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c.Done() {
				zero.Add(1)
			}
		}()
	}
	c.WaitZero()
	wg.Wait()
	if zero.Load() != 1 {
		t.Fatalf("%d goroutines saw zero, want 1", zero.Load())
	}
}

// parkedIn polls until want slots of bank hold an announced sleeper.
func parkedIn(t *testing.T, bank []wake.Slot, want int) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ; {
		n := 0
		for i := range bank {
			if bank[i].Tag() != 0 {
				n++
			}
		}
		if n == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d members parked, want %d", n, len(bank), want)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// TestBarrierLastArriverReleasesParked: over many consecutive phases, with
// the slow member changing every phase, the n−1 others are seen parked
// (announced on their slots) before the slow one is let go, so every release
// is the last arriver's claim-and-signal and none is a lucky spin. No member
// may get through early on a token left over from an earlier phase (the
// arrivals counter would be short), and Wait returns true exactly once per
// phase, to the slow member.
func TestBarrierLastArriverReleasesParked(t *testing.T) {
	const n, phases = 4, 1200
	b := NewBarrier(n)
	var arrivals, lasts atomic.Int64
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for ph := 0; ph < phases; ph++ {
				slow := ph%n == id
				if slow {
					parkedIn(t, b.slots[(ph&1)*(n-1):][:n-1], n-1)
				}
				arrivals.Add(1)
				if b.Wait() {
					lasts.Add(1)
					if !slow {
						t.Errorf("phase %d: member %d was last, want the slow member %d", ph, id, ph%n)
					}
				}
				if got := arrivals.Load(); got < int64((ph+1)*n) {
					t.Errorf("phase %d: member %d released after %d arrivals, want ≥ %d", ph, id, got, (ph+1)*n)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	if got := lasts.Load(); got != phases {
		t.Fatalf("Wait returned true %d times over %d phases", got, phases)
	}
	for i := range b.slots {
		if b.slots[i].Tag() != 0 {
			t.Fatalf("slot %d still announced after the last phase", i)
		}
	}
}

// TestCounterDoneWakesParkedWaiter: the waiter is seen parked before the
// last Done is issued, so it is that Done's wake-up that releases it. One
// Counter serves every round, re-armed by Init as pooled task state is.
func TestCounterDoneWakesParkedWaiter(t *testing.T) {
	var c Counter
	for round := 0; round < 50; round++ {
		c.Init(3)
		back := make(chan struct{})
		go func() { c.WaitZero(); close(back) }()
		c.Done()
		c.Done()
		for deadline := time.Now().Add(30 * time.Second); c.slot.Tag() == 0; {
			if time.Now().After(deadline) {
				t.Fatal("waiter never parked")
			}
			time.Sleep(20 * time.Microsecond)
		}
		select {
		case <-back:
			t.Fatal("WaitZero returned at count 1")
		default:
		}
		if !c.Done() {
			t.Fatal("the third Done of three must report zero")
		}
		select {
		case <-back:
		case <-time.After(30 * time.Second):
			t.Fatal("the Done that reached zero did not wake the parked waiter")
		}
	}
}

// FuzzBarrier runs n members through a number of phases with a per-member,
// per-phase delay pattern drawn from the seed — spin, yield or sleep past the
// spin budget — and checks the barrier's contract after every phase.
func FuzzBarrier(f *testing.F) {
	f.Add(uint8(2), uint8(10), uint64(1))
	f.Add(uint8(5), uint8(40), uint64(0x9e3779b97f4a7c15))
	f.Add(uint8(1), uint8(3), uint64(7))
	f.Fuzz(func(t *testing.T, n8, phases8 uint8, seed uint64) {
		n, phases := 1+int(n8%8), 1+int(phases8%64)
		b := NewBarrier(n)
		var arrivals, lasts atomic.Int64
		var wg sync.WaitGroup
		for id := 0; id < n; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				x := seed ^ uint64(id+1)*0x9e3779b97f4a7c15
				for ph := 0; ph < phases; ph++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					switch x % 4 {
					case 1:
						runtime.Gosched()
					case 2:
						time.Sleep(time.Duration(x>>8%50) * time.Microsecond)
					}
					arrivals.Add(1)
					if b.Wait() {
						lasts.Add(1)
					}
					if got := arrivals.Load(); got < int64((ph+1)*n) {
						t.Errorf("phase %d: released after %d arrivals, want ≥ %d", ph, got, (ph+1)*n)
						return
					}
				}
			}(id)
		}
		wg.Wait()
		if got := lasts.Load(); got != int64(phases) {
			t.Fatalf("Wait returned true %d times over %d phases", got, phases)
		}
	})
}
