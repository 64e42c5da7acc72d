package trace

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// Chrome trace-event export: the snapshot rendered in the JSON object
// format of the Trace Event spec, loadable in Perfetto (ui.perfetto.dev)
// and chrome://tracing. Each ring becomes one named thread track. Durations
// (task executions, park intervals, barrier waits) are emitted as complete
// ("X") slices paired up from the begin/end events of each ring in sequence
// order; begin events whose end fell outside the capture window become open
// "B" slices, and end events without a begin in the window are dropped (so
// the output never underflows a track's slice stack). Flow arrows link a
// task's creating event (spawn or inject-enqueue) through an inject take to
// its execution start — the spawn→start edge that shows steals and
// admission hops. Groups appear as async spans keyed by group id.

// chromeEvent is one entry of the traceEvents array. Field order (and the
// alphabetical key order encoding/json gives maps) makes the output
// deterministic and golden-testable.
type chromeEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

func us(ts int64) float64 { return float64(ts) / 1e3 }

func flowID(id uint64) string { return strconv.FormatUint(id, 16) }

// WriteChrome writes the snapshot as Chrome trace-event JSON.
func (s Snapshot) WriteChrome(w io.Writer) error {
	evs := []chromeEvent{
		{Name: "process_name", Ph: "M", Args: map[string]any{"name": "repro scheduler"}},
	}
	for ri, name := range s.Names {
		evs = append(evs,
			chromeEvent{Name: "thread_name", Ph: "M", Tid: ri, Args: map[string]any{"name": name}},
			chromeEvent{Name: "thread_sort_index", Ph: "M", Tid: ri, Args: map[string]any{"sort_index": ri}},
		)
	}
	meta := len(evs)

	// Flow arrows only for tasks whose creating event survived in the
	// window: a flow finish without its start renders nothing useful and
	// fails strict validation.
	born := map[uint64]bool{}
	// Group async spans: first admission and last completion per group id.
	type groupSpan struct {
		first, last int64
		done        bool
	}
	groups := map[uint32]*groupSpan{}
	perRing := make([][]Event, len(s.Names))
	for _, e := range s.Events {
		perRing[e.Ring] = append(perRing[e.Ring], e)
		switch e.Kind {
		case EvSpawn, EvInjectEnqueue:
			born[e.ID()] = true
		}
		if e.Kind == EvInjectEnqueue || e.Kind == EvGroupDone {
			g, ok := groups[e.X]
			if !ok {
				g = &groupSpan{first: e.TS, last: e.TS}
				groups[e.X] = g
			}
			if e.TS < g.first {
				g.first = e.TS
			}
			if e.TS > g.last {
				g.last = e.TS
			}
			if e.Kind == EvGroupDone {
				g.done = true
			}
		}
	}

	// open is one not-yet-closed duration on a ring's slice stack.
	type open struct {
		kind Kind
		ts   int64
		x    uint32
		arg  uint64
	}
	durName := map[Kind]string{EvStart: "task", EvPark: "parked", EvBarrierEnter: "barrier"}
	for ri := range perRing {
		res := perRing[ri]
		sort.Slice(res, func(i, j int) bool { return res[i].Seq < res[j].Seq })
		var stack []open
		pop := func(k Kind, arg uint64) (open, bool) {
			if n := len(stack) - 1; n >= 0 && stack[n].kind == k &&
				(k != EvStart || stack[n].arg == arg) {
				o := stack[n]
				stack = stack[:n]
				return o, true
			}
			return open{}, false
		}
		for _, e := range res {
			switch e.Kind {
			case EvStart:
				stack = append(stack, open{kind: EvStart, ts: e.TS, x: e.X, arg: e.Arg})
				if born[e.Arg] {
					evs = append(evs, chromeEvent{Name: "spawn", Cat: "flow", Ph: "f",
						BP: "e", TS: us(e.TS), Tid: ri, ID: flowID(e.Arg)})
				}
			case EvDone:
				if o, ok := pop(EvStart, e.Arg); ok {
					name := "task"
					if o.x > 1 {
						name = "team-task"
					}
					evs = append(evs, chromeEvent{Name: name, Cat: "task", Ph: "X",
						TS: us(o.ts), Dur: us(e.TS - o.ts), Tid: ri,
						Args: map[string]any{"tid": flowID(e.Arg), "width": o.x}})
				}
			case EvPark:
				stack = append(stack, open{kind: EvPark, ts: e.TS})
			case EvUnpark:
				if o, ok := pop(EvPark, 0); ok {
					evs = append(evs, chromeEvent{Name: "parked", Cat: "idle", Ph: "X",
						TS: us(o.ts), Dur: us(e.TS - o.ts), Tid: ri})
				}
			case EvBarrierEnter:
				stack = append(stack, open{kind: EvBarrierEnter, ts: e.TS, x: e.X})
			case EvBarrierLeave:
				if o, ok := pop(EvBarrierEnter, 0); ok {
					evs = append(evs, chromeEvent{Name: "barrier", Cat: "team", Ph: "X",
						TS: us(o.ts), Dur: us(e.TS - o.ts), Tid: ri,
						Args: map[string]any{"local_id": o.x}})
				}
			case EvSpawn:
				evs = append(evs, chromeEvent{Name: "spawn", Cat: "task", Ph: "i",
					TS: us(e.TS), Tid: ri, Args: map[string]any{"r": e.X}})
				evs = append(evs, chromeEvent{Name: "spawn", Cat: "flow", Ph: "s",
					TS: us(e.TS), Tid: ri, ID: flowID(e.ID())})
			case EvInjectEnqueue:
				evs = append(evs, chromeEvent{Name: "inject-enqueue", Cat: "admission", Ph: "i",
					TS: us(e.TS), Tid: ri, Args: map[string]any{"group": e.X}})
				evs = append(evs, chromeEvent{Name: "spawn", Cat: "flow", Ph: "s",
					TS: us(e.TS), Tid: ri, ID: flowID(e.ID())})
			case EvInjectTake:
				evs = append(evs, chromeEvent{Name: "inject-take", Cat: "admission", Ph: "i",
					TS: us(e.TS), Tid: ri, Args: map[string]any{"group": e.X}})
				if born[e.Arg] {
					evs = append(evs, chromeEvent{Name: "spawn", Cat: "flow", Ph: "t",
						TS: us(e.TS), Tid: ri, ID: flowID(e.Arg)})
				}
			case EvSteal:
				evs = append(evs, chromeEvent{Name: "steal", Cat: "steal", Ph: "i",
					TS: us(e.TS), Tid: ri,
					Args: map[string]any{"victim": e.Other, "tasks": e.X}})
			default:
				evs = append(evs, chromeEvent{Name: e.Kind.String(), Cat: chromeCat(e.Kind),
					Ph: "i", TS: us(e.TS), Tid: ri,
					Args: map[string]any{"other": e.Other, "x": e.X, "arg": e.Arg}})
			}
		}
		// Durations still open at the end of the window: emit begin-only
		// slices so the viewer shows them as in progress.
		for _, o := range stack {
			evs = append(evs, chromeEvent{Name: durName[o.kind], Cat: "task", Ph: "B",
				TS: us(o.ts), Tid: ri})
		}
	}

	// Async span per group that completed inside the window.
	admRing := len(s.Names) - 1
	gids := make([]uint32, 0, len(groups))
	for gid, g := range groups {
		if g.done && g.last > g.first {
			gids = append(gids, gid)
		}
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	for _, gid := range gids {
		g := groups[gid]
		id := strconv.FormatUint(uint64(gid), 10)
		evs = append(evs,
			chromeEvent{Name: "group", Cat: "group", Ph: "b", TS: us(g.first), Tid: admRing, ID: id},
			chromeEvent{Name: "group", Cat: "group", Ph: "e", TS: us(g.last), Tid: admRing, ID: id},
		)
	}

	// Metadata first, then everything else in time order (stable, so same-
	// timestamp events keep their per-ring emission order). At equal
	// timestamps flow/async starts sort first: a flow step whose start
	// carries the same coarse timestamp must still follow it.
	rank := func(ph string) int {
		if ph == "s" || ph == "b" {
			return 0
		}
		return 1
	}
	sort.SliceStable(evs[meta:], func(i, j int) bool {
		a, b := evs[meta+i], evs[meta+j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		return rank(a.Ph) < rank(b.Ph)
	})
	enc := json.NewEncoder(w)
	return enc.Encode(chromeFile{TraceEvents: evs})
}

// chromeCat buckets the instant-only kinds into viewer categories.
func chromeCat(k Kind) string {
	switch k {
	case EvStealAttempt:
		return "steal"
	case EvGroupDone:
		return "group"
	case EvGroupCancel, EvDeadlineFire, EvInjectRevoke:
		return "cancel"
	case EvTeamFixed, EvPublish, EvPickup, EvExecDone:
		return "team"
	default:
		return "protocol"
	}
}
