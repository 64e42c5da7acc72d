package main

import (
	"testing"
	"time"
)

func TestOpenScheduleShape(t *testing.T) {
	wl, _ := newWorkload("openloop", fullSizing, 2)
	const seconds = 4.0
	_, rngs := streams(11, 1)
	sched := openSchedule(wl, rngs[0], fullSizing.openRate, seconds)
	if want := int(fullSizing.openRate * seconds); len(sched) != want {
		t.Fatalf("%d requests, want rate x seconds = %d", len(sched), want)
	}
	// Walk the arrival events: requests of one event share a due time; every
	// burstEvery-th event is a burst of burstSize, the others carry one.
	ev, i := 0, 0
	for i < len(sched) {
		j := i
		for j < len(sched) && sched[j].Due == sched[i].Due {
			j++
		}
		want := 1
		if ev%burstEvery == burstEvery-1 {
			want = burstSize
		}
		if got := j - i; got != want && j != len(sched) { // the last event may be cut by the count
			t.Errorf("event %d carries %d requests, want %d", ev, got, want)
		}
		if j < len(sched) && sched[j].Due <= sched[i].Due {
			t.Errorf("due times go backwards at request %d", j)
		}
		ev, i = ev+1, j
	}
	if last := sched[len(sched)-1].Due; last <= 0 || last >= int64(seconds*1e9) {
		t.Errorf("last request due at %d ns, outside the window", last)
	}
}

// sleepyClient takes a fixed time per call.
type sleepyClient struct{ d time.Duration }

func (sleepyClient) stage(request)                  {}
func (c sleepyClient) call(request, *callEnv) error { time.Sleep(c.d); return nil }
func (sleepyClient) verify(request, error) outcome  { return outOK }

// Open-loop latency and lateness count from the due time, not from when the
// issuer got to the request: a stall before the call is the request's wait.
func TestOpenLoopTimesFromDue(t *testing.T) {
	cs := &clientState{cl: sleepyClient{2 * time.Millisecond}, every: 1, spans: newSpanBuf(8)}
	cs.lat, cs.late = make([]int64, 0, 1), make([]int64, 0, 1)
	time.Sleep(40 * time.Millisecond)         // due times count from the process epoch and must be positive
	due := now() - int64(30*time.Millisecond) // the request came due 30 ms ago
	cs.do(request{}, 0, due, int64(20*time.Millisecond), true)

	if got := time.Duration(cs.late[0]); got < 30*time.Millisecond || got > 40*time.Millisecond {
		t.Errorf("generator lateness %v, want about 30 ms", got)
	}
	if got := time.Duration(cs.lat[0]); got < 32*time.Millisecond {
		t.Errorf("latency %v does not include the wait since the due time", got)
	}
	if cs.sloMet != 0 {
		t.Error("a request 30 ms late met a 20 ms limit")
	}
	req, wait := cs.spans.spans[0], cs.spans.spans[1]
	if req.Name != spRequest || req.Start != due || wait.Name != spGenWait || wait.Start != due || wait.Parent != 0 {
		t.Errorf("request span %+v / gen_wait span %+v do not start at the due time", req, wait)
	}
}

func TestClosedLoopLatencyIsTheCallOnly(t *testing.T) {
	cs := &clientState{cl: sleepyClient{2 * time.Millisecond}, every: 1}
	cs.lat = make([]int64, 0, 1)
	cs.do(request{}, 0, -1, 1<<62, true)
	if got := time.Duration(cs.lat[0]); got < 2*time.Millisecond || got > 20*time.Millisecond {
		t.Errorf("latency %v, want about the 2 ms call", got)
	}
}
