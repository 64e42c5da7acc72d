package core

import (
	"fmt"
	"strings"

	"repro/internal/trace"
)

// slotMarks is how DumpState marks a worker blocked on its wake slot.
var slotMarks = [...]string{"", slotIdle: " PARKED", slotBarrier: " BARRIER", slotTeamWait: " TEAMWAIT"}

// DumpState renders the live scheduler state for diagnostics (the failure
// reports of the protocol fuzzers and deadlock investigation in tests). It
// is racy by design: all fields are read with atomics but the combined
// picture is approximate. The first thing to read when the runtime makes no
// progress: parked=<n> on the first line and the PARKED mark on a worker's
// line say who is blocked on its wake slot — with tasks in flight and every
// worker parked, a wake-up was lost. BARRIER and TEAMWAIT mark a worker
// blocked there inside a fixed team: in Ctx.Barrier, or between a
// coordinator and its members (teamwait.go).
func (s *Scheduler) DumpState() string {
	var b strings.Builder
	injected, sources := func() (int64, int) {
		s.admitMu.Lock()
		defer s.admitMu.Unlock()
		return s.pendingInject.Load(), s.ringLen
	}()
	fmt.Fprintf(&b, "inflight=%d injected=%d inject_sources=%d parked=%d searching=%d trace_dropped=%d\n",
		s.Pending(), injected, sources, s.parked(), s.park.searching.Load(), s.TraceDropped())
	for _, w := range s.workers {
		r := w.regw.Load()
		c := w.coordp()
		cur := w.cur.Load()
		st := trace.State(w.state.Load())
		stName := "?"
		if st < trace.NumStates {
			stName = trace.StateNames[st]
		}
		fmt.Fprintf(&b, "w%-3d coord=%-3d state=%-8s reg=%v free=%d trace_dropped=%d q=[",
			w.id, c.id, stName, r, w.freeLen.Load(), s.xt.Dropped(w.id))
		for j, q := range w.queues {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", q.Size())
		}
		b.WriteString("]")
		b.WriteString(slotMarks[w.slot.Tag()])
		if cur != 0 {
			// The word and the atomics only: the record's plain fields are
			// the members' and the coordinator's.
			fmt.Fprintf(&b, " exec{size:%d gen:%d pending:%d}",
				pubSize(cur), pubGen(cur), w.exec.pending.Load())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
