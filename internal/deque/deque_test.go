package deque

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestLIFOOwner(t *testing.T) {
	d := New[int]()
	vals := []int{1, 2, 3, 4, 5}
	for i := range vals {
		d.PushBottom(&vals[i])
	}
	for i := len(vals) - 1; i >= 0; i-- {
		v := d.PopBottom()
		if v == nil || *v != vals[i] {
			t.Fatalf("PopBottom: got %v, want %d", v, vals[i])
		}
	}
	if d.PopBottom() != nil {
		t.Fatal("empty deque must return nil")
	}
}

func TestFIFOThief(t *testing.T) {
	d := New[int]()
	vals := []int{1, 2, 3, 4, 5}
	for i := range vals {
		d.PushBottom(&vals[i])
	}
	for i := 0; i < len(vals); i++ {
		v := d.PopTop()
		if v == nil || *v != vals[i] {
			t.Fatalf("PopTop: got %v, want %d", v, vals[i])
		}
	}
	if d.PopTop() != nil {
		t.Fatal("empty deque must return nil from PopTop")
	}
}

func TestGrowth(t *testing.T) {
	d := New[int]()
	const n = 10 * MinCapacity
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i
		d.PushBottom(&vals[i])
	}
	if d.Size() != n {
		t.Fatalf("Size=%d, want %d", d.Size(), n)
	}
	// Mixed draining preserves deque semantics across the grown array.
	for i := 0; i < n/2; i++ {
		if v := d.PopTop(); v == nil || *v != i {
			t.Fatalf("PopTop %d: got %v", i, v)
		}
	}
	for i := n - 1; i >= n/2; i-- {
		if v := d.PopBottom(); v == nil || *v != i {
			t.Fatalf("PopBottom %d: got %v", i, v)
		}
	}
	if !d.Empty() {
		t.Fatal("deque should be empty")
	}
}

func TestInterleavedWrapAround(t *testing.T) {
	d := New[int]()
	x := 0
	// Push/pop cycles exceeding capacity exercise index wrap-around.
	for round := 0; round < 1000; round++ {
		for i := 0; i < 7; i++ {
			d.PushBottom(&x)
		}
		for i := 0; i < 7; i++ {
			if d.PopBottom() == nil {
				t.Fatal("unexpected nil")
			}
		}
	}
	if d.Size() != 0 {
		t.Fatalf("Size=%d after balanced ops", d.Size())
	}
}

// TestConcurrentStealExactlyOnce is the central safety property: under
// concurrent thieves and an active owner, every pushed element is received
// exactly once across PopBottom and PopTop.
func TestConcurrentStealExactlyOnce(t *testing.T) {
	const n = 100000
	const thieves = 6
	d := New[int]()
	vals := make([]int, n)
	got := make([]atomic.Int32, n)
	var wg sync.WaitGroup

	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fails := 0
			for fails < 1_000_000 {
				if v := d.PopTop(); v != nil {
					got[*v].Add(1)
					fails = 0
				} else {
					fails++
				}
			}
		}()
	}

	for i := 0; i < n; i++ {
		vals[i] = i
		d.PushBottom(&vals[i])
		if i%3 == 0 {
			if v := d.PopBottom(); v != nil {
				got[*v].Add(1)
			}
		}
	}
	for {
		v := d.PopBottom()
		if v == nil && d.Empty() {
			break
		}
		if v != nil {
			got[*v].Add(1)
		}
	}
	wg.Wait()
	// Drain anything the owner's final nil raced on.
	for {
		v := d.PopTop()
		if v == nil {
			break
		}
		got[*v].Add(1)
	}
	for i := range got {
		if c := got[i].Load(); c != 1 {
			t.Fatalf("element %d received %d times", i, c)
		}
	}
}

func TestStealTransfersInOrder(t *testing.T) {
	src := New[int]()
	dst := New[int]()
	vals := []int{10, 11, 12, 13, 14, 15}
	for i := range vals {
		src.PushBottom(&vals[i])
	}
	last, n := Steal(src, dst, 4)
	if n != 4 {
		t.Fatalf("stole %d, want 4", n)
	}
	if last == nil || *last != 13 {
		t.Fatalf("last = %v, want 13 (the most recently stolen)", last)
	}
	// dst must hold 10,11,12 in original top-to-bottom order.
	for _, want := range []int{10, 11, 12} {
		v := dst.PopTop()
		if v == nil || *v != want {
			t.Fatalf("dst order: got %v, want %d", v, want)
		}
	}
	if src.Size() != 2 {
		t.Fatalf("src size = %d, want 2", src.Size())
	}
}

func TestStealFromEmpty(t *testing.T) {
	src, dst := New[int](), New[int]()
	last, n := Steal(src, dst, 5)
	if last != nil || n != 0 {
		t.Fatalf("steal from empty: last=%v n=%d", last, n)
	}
}

func TestStealMoreThanAvailable(t *testing.T) {
	src, dst := New[int](), New[int]()
	v := 7
	src.PushBottom(&v)
	last, n := Steal(src, dst, 10)
	if n != 1 || last == nil || *last != 7 {
		t.Fatalf("steal: n=%d last=%v", n, last)
	}
	if dst.Size() != 0 {
		t.Fatal("single stolen element must be returned, not enqueued")
	}
}

// TestQuickSequences checks the sequential semantics against a reference
// slice model over random operation sequences.
func TestQuickSequences(t *testing.T) {
	f := func(ops []bool) bool {
		d := New[int]()
		var model []int
		next := 0
		store := make([]int, 0, len(ops))
		for _, push := range ops {
			if push {
				store = append(store, next)
				d.PushBottom(&store[len(store)-1])
				model = append(model, next)
				next++
			} else {
				v := d.PopBottom()
				if len(model) == 0 {
					if v != nil {
						return false
					}
					continue
				}
				want := model[len(model)-1]
				model = model[:len(model)-1]
				if v == nil || *v != want {
					return false
				}
			}
		}
		return d.Size() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushPopBottom(b *testing.B) {
	d := New[int]()
	x := 42
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.PushBottom(&x)
		d.PopBottom()
	}
}

func BenchmarkPopTopUncontended(b *testing.B) {
	d := New[int]()
	x := 42
	for i := 0; i < b.N; i++ {
		d.PushBottom(&x)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.PopTop()
	}
}
