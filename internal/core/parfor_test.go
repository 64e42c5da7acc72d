package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForStaticCoversRange(t *testing.T) {
	s := newTest(t, Options{P: 8})
	const n = 10000
	hits := make([]atomic.Int32, n)
	s.Run(ForStatic(8, n, func(_ *Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			hits[i].Add(1)
		}
	}))
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("index %d visited %d times", i, hits[i].Load())
		}
	}
}

func TestForStaticUnevenSplit(t *testing.T) {
	s := newTest(t, Options{P: 8})
	const n = 10 // fewer indices than the 8 team members
	hits := make([]atomic.Int32, n)
	var calls atomic.Int32
	s.Run(ForStatic(8, n, func(_ *Ctx, lo, hi int) {
		calls.Add(1)
		for i := lo; i < hi; i++ {
			hits[i].Add(1)
		}
	}))
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("index %d visited %d times", i, hits[i].Load())
		}
	}
	if calls.Load() > 8 {
		t.Fatalf("calls = %d", calls.Load())
	}
}

func TestForStaticEmptyRange(t *testing.T) {
	s := newTest(t, Options{P: 4})
	var calls atomic.Int32
	s.Run(ForStatic(4, 0, func(*Ctx, int, int) { calls.Add(1) })) // must not hang
	if calls.Load() != 0 {
		t.Fatal("body called on empty range")
	}
}

func TestForDynamicCoversRange(t *testing.T) {
	s := newTest(t, Options{P: 8})
	const n = 12345
	hits := make([]atomic.Int32, n)
	s.Run(ForDynamic(8, n, 100, func(_ *Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			hits[i].Add(1)
		}
	}))
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("index %d visited %d times", i, hits[i].Load())
		}
	}
}

func TestForDynamicBalancesIrregularWork(t *testing.T) {
	s := newTest(t, Options{P: 4})
	const n = 4096
	var perWorker [4]atomic.Int64
	// The irregular cost is forced, not timed: whoever claims the first chunk
	// is held on it until another member has claimed one — a latch only
	// another worker releases (the held member claims nothing meanwhile).
	other := make(chan struct{})
	var once sync.Once
	runWithDeadline(t, s, 30*time.Second, func() {
		s.Run(ForDynamic(4, n, 16, func(ctx *Ctx, lo, hi int) {
			perWorker[ctx.LocalID()].Add(int64(hi - lo))
			if lo == 0 {
				<-other
			} else {
				once.Do(func() { close(other) })
			}
		}))
	})
	total := int64(0)
	for i := range perWorker {
		total += perWorker[i].Load()
	}
	if total != n {
		t.Fatalf("covered %d indices, want %d", total, n)
	}
	// Dynamic scheduling must spread work: the members that were not stuck
	// on the expensive chunk took the rest of the range meanwhile.
	for i := range perWorker {
		if perWorker[i].Load() == n {
			t.Fatal("one member processed the whole range; dynamic scheduling dead")
		}
	}
}

func TestForDynamicDefaultChunk(t *testing.T) {
	s := newTest(t, Options{P: 4})
	var count atomic.Int64
	s.Run(ForDynamic(4, 1000, 0, func(_ *Ctx, lo, hi int) {
		count.Add(int64(hi - lo))
	}))
	if count.Load() != 1000 {
		t.Fatalf("covered %d", count.Load())
	}
}

func TestTeamForCollective(t *testing.T) {
	s := newTest(t, Options{P: 8})
	const n = 999
	hits := make([]atomic.Int32, n)
	var after atomic.Int32
	s.Run(Func(4, func(ctx *Ctx) {
		ctx.TeamFor(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
		// After TeamFor's barrier, the whole range must be covered.
		for i := range hits {
			if hits[i].Load() != 1 {
				after.Add(1)
			}
		}
	}))
	if after.Load() != 0 {
		t.Fatalf("%d coverage violations observed after TeamFor", after.Load())
	}
}

func TestTeamForSolo(t *testing.T) {
	s := newTest(t, Options{P: 2})
	var got atomic.Int64
	s.Run(Solo(func(ctx *Ctx) {
		ctx.TeamFor(100, func(lo, hi int) { got.Add(int64(hi - lo)) })
	}))
	if got.Load() != 100 {
		t.Fatalf("solo TeamFor covered %d", got.Load())
	}
}

func TestForStaticNestedSpawns(t *testing.T) {
	// Loop bodies may spawn follow-up tasks.
	s := newTest(t, Options{P: 8})
	var leaves atomic.Int64
	s.Run(ForStatic(4, 16, func(ctx *Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			ctx.Spawn(Solo(func(*Ctx) { leaves.Add(1) }))
		}
	}))
	s.Wait()
	if leaves.Load() != 16 {
		t.Fatalf("leaves = %d", leaves.Load())
	}
}

// TestBestNp is the one table for getBestNp, merged from the per-algorithm
// copies the rule used to have: quota boundaries, the team-size cap, and
// the power-of-two restriction.
func TestBestNp(t *testing.T) {
	cases := []struct{ n, per, maxTeam, want int }{
		{0, 512, 8, 1},
		{1023, 512, 8, 1},
		{4095, 1024, 8, 2},
		{4096, 1024, 8, 4},
		{1 << 17, 1 << 16, 8, 2}, // exactly the quota each
		{1<<17 - 1, 1 << 16, 8, 1},
		{1 << 18, 1 << 16, 8, 4},
		{1 << 20, 512, 8, 8}, // capped by team size
		{1 << 20, 512, 1, 1}, // single-thread scheduler
		{1 << 20, 1 << 19, 64, 2},
		{1 << 20, 1 << 20, 64, 1},
		{1 << 30, 1 << 13, 7, 4}, // largest power of two ≤ maxTeam
		{100, 10, 8, 8},
	}
	for _, c := range cases {
		if got := BestNp(c.n, c.per, c.maxTeam); got != c.want {
			t.Errorf("BestNp(%d, %d, %d) = %d, want %d", c.n, c.per, c.maxTeam, got, c.want)
		}
	}
}
