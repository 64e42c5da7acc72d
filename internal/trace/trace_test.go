package trace

import (
	"regexp"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestKindNamesExhaustive pins that every Kind has a distinct, non-empty
// display name — adding a Kind without extending kindNames fails to compile
// (fixed-size array), and this test catches duplicated or forgotten strings.
func TestKindNamesExhaustive(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(0); k < NumKinds; k++ {
		name := k.String()
		if name == "" {
			t.Fatalf("kind %d has an empty name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
	}
	if got := NumKinds.String(); !strings.HasPrefix(got, "kind-") {
		t.Fatalf("out-of-range kind renders %q", got)
	}
}

// TestStateNamesExhaustive does the same for worker states, and additionally
// pins that every name is a valid Prometheus label value in the snake_case
// the repro_worker_state_samples_total{state=...} series use.
func TestStateNamesExhaustive(t *testing.T) {
	label := regexp.MustCompile(`^[a-z][a-z_]*$`)
	seen := map[string]State{}
	for s := State(0); s < NumStates; s++ {
		name := s.String()
		if !label.MatchString(name) {
			t.Fatalf("state %d name %q is not snake_case", s, name)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("states %d and %d share the name %q", prev, s, name)
		}
		seen[name] = s
	}
	if got := NumStates.String(); !strings.HasPrefix(got, "state-") {
		t.Fatalf("out-of-range state renders %q", got)
	}
}

// TestRingPadded holds the ring header's stride to the size the compiler
// gives the struct: rings sit in one array, and a stride that is not a
// multiple of the cache line puts two owners' pos words on one line.
func TestRingPadded(t *testing.T) {
	if sz := unsafe.Sizeof(ring{}); sz%64 != 0 {
		t.Fatalf("sizeof(ring) = %d, not a multiple of 64: fix the trailing padding", sz)
	}
}

// TestRecordSnapshotRoundTrip records known events on two rings and checks
// the snapshot returns exactly them, payloads intact, in timestamp order,
// with dense per-ring sequence numbers and ids matching Record's returns.
func TestRecordSnapshotRoundTrip(t *testing.T) {
	tr := New([]string{"w0", "w1"}, 64)
	if tr.Enabled() {
		t.Fatal("tracer enabled before Start")
	}
	if id := tr.Record(0, EvSpawn, 0, 1, 0); id != 0 {
		t.Fatalf("Record before Start returned id %d, want 0", id)
	}
	tr.Start()
	if !tr.Enabled() {
		t.Fatal("tracer not enabled after Start")
	}
	ids := []uint64{
		tr.Record(0, EvSpawn, 0, 1, 0),
		tr.Record(1, EvSteal, 0, 3, 0),
		tr.Record(0, EvStart, 0, 1, 42),
	}
	snap := tr.Snapshot()
	if len(snap.Events) != 3 {
		t.Fatalf("snapshot has %d events, want 3:\n%s", len(snap.Events), snap.Text())
	}
	for i := 1; i < len(snap.Events); i++ {
		if snap.Events[i].TS < snap.Events[i-1].TS {
			t.Fatalf("snapshot not timestamp-ordered: %v", snap.Events)
		}
	}
	byID := map[uint64]Event{}
	for _, e := range snap.Events {
		byID[e.ID()] = e
	}
	if len(byID) != 3 {
		t.Fatalf("event ids not unique: %v", snap.Events)
	}
	spawn, steal, start := byID[ids[0]], byID[ids[1]], byID[ids[2]]
	if spawn.Kind != EvSpawn || spawn.Ring != 0 || spawn.Seq != 0 || spawn.X != 1 {
		t.Fatalf("spawn event mangled: %+v", spawn)
	}
	if steal.Kind != EvSteal || steal.Ring != 1 || steal.Seq != 0 || steal.X != 3 {
		t.Fatalf("steal event mangled: %+v", steal)
	}
	if start.Kind != EvStart || start.Ring != 0 || start.Seq != 1 || start.Arg != 42 {
		t.Fatalf("start event mangled: %+v", start)
	}
	if snap.Names[0] != "w0" || snap.Names[1] != "w1" {
		t.Fatalf("names mangled: %v", snap.Names)
	}
	if snap.Dropped[0] != 0 || snap.Dropped[1] != 0 {
		t.Fatalf("dropped = %v, want zeros", snap.Dropped)
	}
}

// TestRingOverflow pins the drop-oldest contract: a full ring keeps the most
// recent cap events and reports everything older as dropped.
func TestRingOverflow(t *testing.T) {
	tr := New([]string{"w"}, minRingEvents) // capacity 8
	tr.Start()
	const total = 20
	for i := 0; i < total; i++ {
		tr.Record(0, EvSpawn, 0, uint32(i), 0)
	}
	if got, want := tr.Dropped(0), uint64(total-minRingEvents); got != want {
		t.Fatalf("Dropped = %d, want %d", got, want)
	}
	if got := tr.DroppedTotal(); got != uint64(total-minRingEvents) {
		t.Fatalf("DroppedTotal = %d", got)
	}
	if got := tr.Events(); got != total {
		t.Fatalf("Events = %d, want %d", got, total)
	}
	snap := tr.Snapshot()
	if len(snap.Events) != minRingEvents {
		t.Fatalf("snapshot has %d events, want %d", len(snap.Events), minRingEvents)
	}
	for i, e := range snap.Events {
		if want := uint32(total - minRingEvents + i); e.X != want {
			t.Fatalf("event %d payload X = %d, want %d (oldest not dropped)", i, e.X, want)
		}
	}
	if snap.Dropped[0] != total-minRingEvents {
		t.Fatalf("snapshot Dropped = %v", snap.Dropped)
	}
	if txt := snap.Text(); !strings.Contains(txt, "dropped") {
		t.Fatalf("Text() lacks the dropped header:\n%s", txt)
	}
}

// TestStopKeepsEventsRestartAppends pins the toggle contract: Stop leaves
// the recorded events readable, and a restart appends to the same timeline
// (sequence numbers keep counting — restarting never invalidates old ids).
func TestStopKeepsEventsRestartAppends(t *testing.T) {
	tr := New([]string{"w"}, 64)
	tr.Start()
	for i := 0; i < 3; i++ {
		tr.Record(0, EvSpawn, 0, 1, 0)
	}
	tr.Stop()
	if tr.Enabled() {
		t.Fatal("enabled after Stop")
	}
	if got := len(tr.Snapshot().Events); got != 3 {
		t.Fatalf("events after Stop = %d, want 3", got)
	}
	tr.Start()
	tr.Record(0, EvSteal, 0, 1, 0)
	snap := tr.Snapshot()
	if got := len(snap.Events); got != 4 {
		t.Fatalf("events after restart = %d, want 4", got)
	}
	if last := snap.Events[3]; last.Seq != 3 {
		t.Fatalf("restart did not continue the sequence: %+v", last)
	}
}

// TestSnapshotSince pins the bounded-window filter of /debug/trace.
func TestSnapshotSince(t *testing.T) {
	tr := New([]string{"w"}, 64)
	tr.Start()
	for i := 0; i < 5; i++ {
		tr.Record(0, EvSpawn, 0, uint32(i), 0)
	}
	snap := tr.Snapshot()
	cut := snap.Events[2].TS
	win := snap.Since(cut)
	if len(win.Events) > len(snap.Events)-2 {
		t.Fatalf("Since(%d) kept %d of %d events", cut, len(win.Events), len(snap.Events))
	}
	for _, e := range win.Events {
		if e.TS < cut {
			t.Fatalf("Since kept event before the cut: %+v", e)
		}
	}
	if len(win.Names) != 1 || len(win.Dropped) != 1 {
		t.Fatalf("Since dropped the ring metadata: %+v", win)
	}
}

// TestRecordZeroAlloc is the regression gate for the tracer's hot-path
// claim: recording with tracing on allocates nothing, and the disabled
// guard (Enabled + branch) allocates nothing either.
func TestRecordZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tr := New([]string{"w"}, 1024)
	tr.Start()
	if avg := testing.AllocsPerRun(200, func() {
		tr.Record(0, EvSpawn, 0, 1, 42)
	}); avg != 0 {
		t.Fatalf("enabled Record allocates %v per call, want 0", avg)
	}
	tr.Stop()
	if avg := testing.AllocsPerRun(200, func() {
		if tr.Enabled() {
			tr.Record(0, EvSpawn, 0, 1, 42)
		}
	}); avg != 0 {
		t.Fatalf("disabled guard allocates %v per call, want 0", avg)
	}
}

// TestConcurrentRecordSnapshot hammers the seqlock read path: one writer per
// ring wraps its small ring many times while snapshots run concurrently.
// Every surviving event must be well-formed (the stamp validation never
// yields a torn copy), and per-ring sequences must be strictly increasing.
// Under -race this also proves the all-atomic slot protocol is clean.
func TestConcurrentRecordSnapshot(t *testing.T) {
	const (
		rings     = 4
		perWriter = 20000
	)
	tr := New(make([]string, rings), minRingEvents*2)
	tr.Start()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for ri := 0; ri < rings; ri++ {
		wg.Add(1)
		go func(ri int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr.Record(ri, Kind(i%int(NumKinds)), ri, uint32(i), uint64(i))
			}
		}(ri)
	}
	go func() { wg.Wait(); close(stop) }()
	snaps := 0
	for {
		snap := tr.Snapshot()
		snaps++
		lastSeq := make(map[int]uint64)
		for _, e := range snap.Events {
			if e.Kind >= NumKinds {
				t.Fatalf("torn event: kind %d out of range (%+v)", e.Kind, e)
			}
			if e.TS <= 0 {
				t.Fatalf("torn event: non-positive timestamp (%+v)", e)
			}
			// A consistent slot has X ≡ Arg ≡ seq-of-write (mod payload
			// widths) by construction above: kind, X, and Arg all derive
			// from the same loop index.
			if uint64(e.X) != e.Arg&0xffffffff {
				t.Fatalf("torn event: X %d does not match Arg %d (%+v)", e.X, e.Arg, e)
			}
			if prev, ok := lastSeq[e.Ring]; ok && e.Seq <= prev {
				t.Fatalf("ring %d sequences not increasing: %d after %d", e.Ring, e.Seq, prev)
			}
			lastSeq[e.Ring] = e.Seq
		}
		select {
		case <-stop:
			if want := uint64(rings * perWriter); tr.Events() != want {
				t.Fatalf("Events = %d, want %d", tr.Events(), want)
			}
			if snaps < 2 {
				t.Fatalf("only %d snapshots raced the writers", snaps)
			}
			return
		default:
		}
	}
}
