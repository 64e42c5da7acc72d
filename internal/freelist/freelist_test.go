package freelist

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

type obj struct{ id int }

// TestStackSpillsAndRefillsInBatches: a full stack spills Batch objects, an
// empty one refills Batch, and nothing is lost or handed out twice.
func TestStackSpillsAndRefillsInBatches(t *testing.T) {
	var l List[*obj]
	var a, b Stack[*obj]
	for i := 0; i < StackCap+1; i++ {
		a.Put(&l, &obj{id: i})
	}
	if a.Len() != StackCap-Batch+1 || l.SharedLen() != Batch {
		t.Fatalf("after %d puts: stack %d, shared %d; want %d, %d", StackCap+1, a.Len(), l.SharedLen(), StackCap-Batch+1, Batch)
	}
	seen := map[int]bool{}
	take := func(st *Stack[*obj]) {
		x, ok := st.Get(&l)
		if !ok {
			t.Fatal("miss with objects left")
		}
		if seen[x.id] {
			t.Fatalf("object %d handed out twice", x.id)
		}
		seen[x.id] = true
	}
	take(&b) // refills one batch
	if b.Len() != Batch-1 || l.SharedLen() != 0 {
		t.Fatalf("after a refill: stack %d, shared %d; want %d, 0", b.Len(), l.SharedLen(), Batch-1)
	}
	for b.Len() > 0 {
		take(&b)
	}
	for a.Len() > 0 {
		take(&a)
	}
	if len(seen) != StackCap+1 {
		t.Fatalf("got %d objects back, want %d", len(seen), StackCap+1)
	}
	if _, ok := b.Get(&l); ok {
		t.Fatal("a drained list handed out an object")
	}
}

// TestMissTakesNoLock: a miss on an empty stack over an empty shared level
// answers from one atomic load; it does not wait for the level's mutex.
func TestMissTakesNoLock(t *testing.T) {
	var l List[*obj]
	var st Stack[*obj]
	l.mu.Lock()
	done := make(chan bool)
	go func() {
		_, ok := st.Get(&l)
		_, sok := l.GetShared()
		done <- ok || sok
	}()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("an empty list handed out an object")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a miss on an empty list waited for the shared level's lock")
	}
	l.mu.Unlock()
}

// TestCollectionEmptiesNothing: what a List holds survives collections, on
// both levels and in the owner level's stacks.
func TestCollectionEmptiesNothing(t *testing.T) {
	var l List[*obj]
	const owners, each = 3, StackCap + 7
	for id := 0; id < owners; id++ {
		for i := 0; i < each; i++ {
			l.Put(id, &obj{})
		}
	}
	l.PutShared(&obj{})
	runtime.GC()
	runtime.GC()
	got := 0
	for id := 0; id < owners; id++ {
		for {
			if _, ok := l.Get(id); !ok {
				break
			}
			got++
		}
	}
	if want := owners*each + 1; got != want {
		t.Fatalf("got %d objects back after two collections, want %d", got, want)
	}
}

// TestOwnersConcurrent: owners recycle concurrently, each on its own id, and
// clients on the shared level beside them; run it with -race. Every object
// is out with one goroutine at a time, and none is lost.
func TestOwnersConcurrent(t *testing.T) {
	var l List[*obj]
	const owners, rounds = 4, 2000
	var wg sync.WaitGroup
	var mu sync.Mutex
	made := 0
	worker := func(get func() (*obj, bool), put func(*obj)) {
		defer wg.Done()
		held := make([]*obj, 0, 2*StackCap)
		for r := 0; r < rounds; r++ {
			// Take a burst, then give it back: the bursts overflow the
			// stack, so objects travel through the shared level.
			for i := 0; i < (r%3)*StackCap/2+1; i++ {
				x, ok := get()
				if !ok {
					x = &obj{}
					mu.Lock()
					made++
					mu.Unlock()
				}
				x.id++ // a data race if another goroutine holds x too
				held = append(held, x)
			}
			for _, x := range held {
				put(x)
			}
			held = held[:0]
		}
	}
	for id := 0; id < owners; id++ {
		wg.Add(1)
		go worker(func() (*obj, bool) { return l.Get(id) }, func(x *obj) { l.Put(id, x) })
	}
	wg.Add(1)
	go worker(l.GetShared, l.PutShared)
	wg.Wait()
	got := l.SharedLen()
	for id := 0; id < owners; id++ {
		got += l.owner(id).Len()
	}
	if got != made {
		t.Fatalf("the list holds %d objects, %d were made", got, made)
	}
}

// FuzzList plays a sequence of operations on three owners and the shared
// level against a count: every Get returns an object that is on the list,
// no object is out twice, and a miss happens only on an empty list.
func FuzzList(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 254, 253, 3, 3, 3, 128, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var l List[*obj]
		out := map[*obj]bool{}
		in := 0 // objects on the list
		for _, op := range ops {
			id := int(op%4) - 1 // -1: the shared level
			n := int(op>>2) + 1 // how many
			if op&0x80 == 0 {
				for i := 0; i < n; i++ {
					x, ok := l.Get(id)
					if !ok {
						if id >= 0 && in > 0 && l.owner(id).Len() > 0 {
							t.Fatalf("owner %d missed with %d on its stack", id, l.owner(id).Len())
						}
						if l.SharedLen() > 0 {
							t.Fatalf("missed with %d on the shared level", l.SharedLen())
						}
						x = &obj{}
					} else {
						in--
						if out[x] {
							t.Fatal("object handed out twice")
						}
					}
					out[x] = true
				}
				continue
			}
			for x := range out {
				if n == 0 {
					break
				}
				n--
				delete(out, x)
				l.Put(id, x)
				in++
			}
		}
		got := l.SharedLen()
		for id := 0; id < 3; id++ {
			got += l.owner(id).Len()
		}
		if got != in {
			t.Fatalf("the list holds %d objects, want %d", got, in)
		}
	})
}
