package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenSnapshot fabricates a small but representative capture with fixed
// timestamps (Record reads the real clock, so a recorded snapshot would not
// be reproducible): an externally admitted task taken and run on worker 0,
// an interior spawn stolen and run by worker 1, a completed group, a park
// interval, a team task with a barrier, and one still-open park at the end
// of the window.
func goldenSnapshot() Snapshot {
	ev := func(ring int, seq uint64, ts int64, k Kind, other int, x uint32, arg uint64) Event {
		return Event{Ring: ring, Seq: seq, TS: ts, Kind: k, Other: other, X: x, Arg: arg}
	}
	enqID := eventID(2, 0)   // admission ring, first event
	spawnID := eventID(0, 2) // worker 0's interior spawn
	return Snapshot{
		Names:   []string{"worker 0", "worker 1", "inject"},
		Dropped: []uint64{0, 7, 0},
		Events: []Event{
			ev(2, 0, 1000, EvInjectEnqueue, 0, 1, 0),
			ev(0, 0, 2000, EvInjectTake, 2, 1, enqID),
			ev(0, 1, 3000, EvStart, 0, 1, enqID),
			ev(0, 2, 3500, EvSpawn, 0, 1, 0),
			ev(0, 3, 5000, EvDone, 0, 1, enqID),
			ev(1, 0, 5200, EvSteal, 0, 1, 0),
			ev(1, 1, 5500, EvStart, 0, 1, spawnID),
			ev(1, 2, 6000, EvDone, 0, 1, spawnID),
			ev(0, 4, 6500, EvGroupDone, 0, 1, 0),
			ev(1, 3, 6600, EvPark, 0, 0, 0),
			ev(1, 4, 7000, EvUnpark, 0, 0, 0),
			ev(0, 5, 8000, EvStart, 0, 2, 0),
			ev(0, 6, 8200, EvBarrierEnter, 0, 0, 0),
			ev(0, 7, 8400, EvBarrierLeave, 0, 0, 0),
			ev(0, 8, 9000, EvDone, 0, 2, 0),
			ev(0, 9, 9500, EvPark, 0, 0, 0),
		},
	}
}

// TestWriteChromeGolden pins the exporter's exact output byte-for-byte and
// checks it passes this package's own schema validation.
func TestWriteChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenSnapshot().WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	n, err := ValidateChrome(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace fails validation: %v\n%s", err, buf.String())
	}
	if n == 0 {
		t.Fatal("exported trace has no events")
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("output differs from %s (run with -update to rebless)\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
}

// TestWriteChromeShape spot-checks the semantic structure the golden bytes
// encode, so a deliberate rebless still has the invariants spelled out:
// paired durations, flow arrows only for in-window births, team naming,
// group async spans, and open slices at the window edge.
func TestWriteChromeShape(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenSnapshot().WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		`"name":"team-task"`,               // width-2 execution renamed
		`"name":"parked"`,                  // park/unpark pairing
		`"name":"barrier"`,                 // barrier enter/leave pairing
		`"ph":"s"`, `"ph":"t"`, `"ph":"f"`, // full flow chain enqueue→take→start
		`"ph":"b"`, `"ph":"e"`, // group async span
		`"name":"parked","cat":"idle","ph":"B"`, // trailing open park, named as its closed form
		`"name":"inject"`,                       // admission ring track name
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export lacks %s:\n%s", want, out)
		}
	}
	// A team task and its barrier both still open at the window's edge keep
	// the name and category of their closed forms too.
	open := Snapshot{Names: []string{"worker 0"}, Events: []Event{
		{Ring: 0, Seq: 0, TS: 1000, Kind: EvStart, X: 2},
		{Ring: 0, Seq: 1, TS: 1200, Kind: EvBarrierEnter},
	}}
	buf.Reset()
	if err := open.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	for _, want := range []string{
		`"name":"team-task","cat":"task","ph":"B"`,
		`"name":"barrier","cat":"team","ph":"B"`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("export lacks %s:\n%s", want, buf.String())
		}
	}
	if strings.Count(out, `"ph":"f"`) != 2 {
		// Exactly two flow finishes: the admitted task's start and the
		// stolen task's start. The team task (Arg 0, no creating event in
		// window) must not get one.
		t.Errorf("want exactly 2 flow finishes:\n%s", out)
	}
}
