package trace

import (
	"encoding/json"
	"fmt"
	"sort"
)

// ValidateChrome is a minimal schema checker for Chrome trace-event JSON —
// the checks Perfetto's importer effectively requires, so a test can fail
// a broken export before a human loads it. It accepts both the object form
// ({"traceEvents": [...]}) and a bare event array, and verifies:
//
//   - every event has a known phase, and non-metadata events carry a
//     numeric ts ≥ 0 and pid/tid
//   - B/E/X/i/I/M events are named; X durations are non-negative
//   - per (pid, tid) track, B/E nesting never underflows (an E with no
//     open B); slices still open at the end are allowed (cut window)
//   - flow steps/finishes (t/f) and async ends (e) refer to an id that a
//     flow start (s) / async begin (b) introduced at or before their ts
//
// It returns the number of events on success.
func ValidateChrome(data []byte) (int, error) {
	var file struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	raw := file.TraceEvents
	if err := json.Unmarshal(data, &file); err != nil || file.TraceEvents == nil {
		if err2 := json.Unmarshal(data, &raw); err2 != nil {
			return 0, fmt.Errorf("neither a trace object nor an event array: %v", err2)
		}
	} else {
		raw = file.TraceEvents
	}

	type cev struct {
		Name string   `json:"name"`
		Cat  string   `json:"cat"`
		Ph   string   `json:"ph"`
		TS   *float64 `json:"ts"`
		Dur  *float64 `json:"dur"`
		Pid  *float64 `json:"pid"`
		Tid  *float64 `json:"tid"`
		ID   string   `json:"id"`
	}
	phases := map[string]bool{
		"B": true, "E": true, "X": true, "i": true, "I": true,
		"s": true, "t": true, "f": true, "b": true, "e": true, "n": true,
		"M": true, "C": true,
	}
	named := map[string]bool{"B": true, "E": true, "X": true, "i": true, "I": true, "M": true}

	evs := make([]cev, 0, len(raw))
	for i, r := range raw {
		var e cev
		if err := json.Unmarshal(r, &e); err != nil {
			return 0, fmt.Errorf("event %d: %v", i, err)
		}
		if !phases[e.Ph] {
			return 0, fmt.Errorf("event %d: unknown phase %q", i, e.Ph)
		}
		if named[e.Ph] && e.Name == "" {
			return 0, fmt.Errorf("event %d: phase %q without a name", i, e.Ph)
		}
		if e.Ph != "M" {
			if e.TS == nil {
				return 0, fmt.Errorf("event %d (%s %q): no ts", i, e.Ph, e.Name)
			}
			if *e.TS < 0 {
				return 0, fmt.Errorf("event %d (%s %q): negative ts %v", i, e.Ph, e.Name, *e.TS)
			}
			if e.Pid == nil || e.Tid == nil {
				return 0, fmt.Errorf("event %d (%s %q): missing pid/tid", i, e.Ph, e.Name)
			}
		}
		if e.Ph == "X" && e.Dur != nil && *e.Dur < 0 {
			return 0, fmt.Errorf("event %d (X %q): negative dur %v", i, e.Name, *e.Dur)
		}
		switch e.Ph {
		case "s", "t", "f", "b", "e":
			if e.ID == "" {
				return 0, fmt.Errorf("event %d (%s %q): flow/async without id", i, e.Ph, e.Name)
			}
		}
		evs = append(evs, e)
	}

	// Order-dependent checks run in timestamp order (metadata excluded).
	timed := make([]cev, 0, len(evs))
	for _, e := range evs {
		if e.Ph != "M" {
			timed = append(timed, e)
		}
	}
	sort.SliceStable(timed, func(i, j int) bool { return *timed[i].TS < *timed[j].TS })

	depth := map[[2]float64]int{}         // open B count per (pid, tid)
	flowStart := map[[2]string]float64{}  // earliest s per (cat, id)
	asyncBegin := map[[2]string]float64{} // earliest b per (cat, id)
	for i, e := range timed {
		switch e.Ph {
		case "B":
			depth[[2]float64{*e.Pid, *e.Tid}]++
		case "E":
			k := [2]float64{*e.Pid, *e.Tid}
			if depth[k] == 0 {
				return 0, fmt.Errorf("timed event %d: E %q underflows track pid=%v tid=%v",
					i, e.Name, *e.Pid, *e.Tid)
			}
			depth[k]--
		case "s":
			k := [2]string{e.Cat, e.ID}
			if _, ok := flowStart[k]; !ok {
				flowStart[k] = *e.TS
			}
		case "t", "f":
			k := [2]string{e.Cat, e.ID}
			ts, ok := flowStart[k]
			if !ok || ts > *e.TS {
				return 0, fmt.Errorf("timed event %d: flow %s id=%q has no earlier start", i, e.Ph, e.ID)
			}
		case "b":
			k := [2]string{e.Cat, e.ID}
			if _, ok := asyncBegin[k]; !ok {
				asyncBegin[k] = *e.TS
			}
		case "e":
			k := [2]string{e.Cat, e.ID}
			ts, ok := asyncBegin[k]
			if !ok || ts > *e.TS {
				return 0, fmt.Errorf("timed event %d: async end id=%q has no earlier begin", i, e.ID)
			}
		}
	}
	return len(evs), nil
}
