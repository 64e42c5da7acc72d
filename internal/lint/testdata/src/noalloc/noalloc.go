// Package noalloc exercises the noalloc analyzer. The compiler half: what
// go build -gcflags=-m moves to the heap inside a //repro:noalloc function
// fires, what it keeps on the stack does not. The syntactic half: append, map
// writes and go fire whatever the compiler says. //repro:allow on the line
// waives either.
package noalloc

type point struct{ x, y int }

var (
	sink   any
	sinkFn func() int
	sinkP  *int
)

//repro:noalloc
func litAddr() *point {
	return &point{1, 2} // want `&point{...} escapes to heap in //repro:noalloc function litAddr`
}

//repro:noalloc
func boxed(v int) {
	sink = v // want `v escapes to heap`
}

//repro:noalloc
func storedClosure(n int) {
	sinkFn = func() int { return n } // want `func literal escapes to heap`
}

//repro:noalloc
func concat(a, b string) string {
	return a + b // want `a \+ b escapes to heap`
}

//repro:noalloc
func movedLocal() {
	var x int // want `moved to heap: x`
	sinkP = &x
}

//repro:noalloc
func sizedAtRunTime(n int) int {
	s := make([]int, n) // want `make\(\[\]int, n\) escapes to heap`
	return len(s)
}

// The compiler's verdict is the rule: none of these leaves its frame.
//
//repro:noalloc
func onStack(n int) int {
	s := make([]int, 8)
	p := new(int)
	q := &point{n, n}
	f := func() int { return q.x + *p }
	s[0] = f()
	return s[0]
}

//repro:noalloc
func appended(xs []int, n int) []int {
	return append(xs, n) // want `append may allocate`
}

//repro:noalloc
func mapWrite(m map[int]int, v int) {
	m[v] = v // want `map write may allocate`
}

//repro:noalloc
func spawned(ch chan int) {
	go drain(ch) // want `go statement allocates`
}

func drain(ch chan int) {
	for range ch {
	}
}

//repro:noalloc
func allowed(xs []int, m map[int]int, ch chan int) (*point, []int) {
	m[0] = 1                                //repro:allow the caller pre-sizes the map
	go drain(ch)                            //repro:allow once per process
	return &point{}, append(xs, len(xs)<<1) //repro:allow pool refill; capacity-bounded by the caller's contract
}

//repro:noalloc
func allowedAbove() *point {
	//repro:allow a standalone directive covers the line below it
	return &point{}
}

// Not annotated: nothing here is the analyzer's business.
func unannotated(xs []int) (*point, []int) {
	return &point{}, append(xs, 1)
}
