// Package chaos is the scheduler's fault-injection layer: an Injector
// implementing the core.Options.Fault hook that stalls workers, delays
// inject-queue drains and admissions, and randomly cancels groups, so the
// stress tests (FuzzCancelStorm among them) can prove the runtime degrades
// gracefully — canceled work revoked, counters reconciling, waits releasing
// exactly once — instead of failing noisily.
//
// The package is build-tag-free on purpose: faults flow through the plain
// Options.Fault hook, which costs a production scheduler one predicted nil
// check per fault point, so the chaos build is the production build. All
// decisions come from one seeded counter-hash stream — runs with the same
// seed and the same interleaving roll the same faults, and the roll itself
// is lock-free so the injector never serializes the workers it torments.
package chaos

import (
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Defaults for the injected delay durations.
const (
	DefaultStallDur = 200 * time.Microsecond
	DefaultDelayDur = 50 * time.Microsecond
)

// Options configures an Injector. Every *Every field is a probability
// expressed as "about one in N rolls fires"; 0 disables that fault.
type Options struct {
	// Seed seeds the decision stream; two injectors with the same seed and
	// call sequence make the same decisions.
	Seed uint64
	// StallEvery stalls ~1/N worker loop iterations for StallDur, modeling a
	// descheduled or overloaded worker.
	StallEvery int
	// StallDur is the injected worker stall length (default DefaultStallDur).
	StallDur time.Duration
	// ParkStallEvery stalls ~1/N parks for StallDur after the worker
	// announced itself on its wake slot and before it re-checks and blocks —
	// the window in which wakers already count on being able to wake it. It
	// covers the idle park and the waits inside a fixed team alike.
	ParkStallEvery int
	// DelayTakeEvery delays ~1/N inject-queue drains by DelayDur, widening
	// the window between a cancel and its revocations.
	DelayTakeEvery int
	// AdmitDelayEvery delays ~1/N external admission calls by DelayDur on
	// the client goroutine.
	AdmitDelayEvery int
	// DelayDur is the injected take/admit delay (default DefaultDelayDur).
	DelayDur time.Duration
	// CancelEvery makes ~1/N MaybeCancel rolls actually cancel the group.
	CancelEvery int
}

func (o Options) withDefaults() Options {
	if o.StallDur <= 0 {
		o.StallDur = DefaultStallDur
	}
	if o.DelayDur <= 0 {
		o.DelayDur = DefaultDelayDur
	}
	return o
}

// Injector injects faults at the scheduler's fault points. Wire it in with
//
//	core.Options{Fault: inj.Fault}
//
// and drive group-cancel storms from the client side with MaybeCancel.
// All methods are safe for concurrent use.
type Injector struct {
	opts Options
	seq  atomic.Uint64 // decision stream position

	calls    [core.NumFaultPoints]atomic.Int64 // hook invocations per point
	injected [core.NumFaultPoints]atomic.Int64 // faults actually fired per point
	cancels  atomic.Int64                      // groups canceled by MaybeCancel
}

// New returns an injector with the given options.
func New(opts Options) *Injector {
	return &Injector{opts: opts.withDefaults()}
}

// Fault is the core.Options.Fault hook: it rolls the fault configured for
// the point and sleeps when the roll fires. It must stay safe to call from
// any goroutine, including the scheduler's workers.
func (i *Injector) Fault(p core.FaultPoint, worker int) {
	i.calls[p].Add(1)
	switch p {
	case core.FaultWorkerLoop:
		if i.roll(i.opts.StallEvery) {
			i.injected[p].Add(1)
			time.Sleep(i.opts.StallDur)
		}
	case core.FaultPark, core.FaultTeamPark:
		if i.roll(i.opts.ParkStallEvery) {
			i.injected[p].Add(1)
			time.Sleep(i.opts.StallDur)
		}
	case core.FaultInjectTake:
		if i.roll(i.opts.DelayTakeEvery) {
			i.injected[p].Add(1)
			time.Sleep(i.opts.DelayDur)
		}
	case core.FaultAdmit:
		if i.roll(i.opts.AdmitDelayEvery) {
			i.injected[p].Add(1)
			time.Sleep(i.opts.DelayDur)
		}
	}
}

// MaybeCancel rolls the cancel fault for g: about one in CancelEvery calls
// cancels the group with the given cause (nil records core.ErrCanceled).
// It reports whether this call canceled the group.
func (i *Injector) MaybeCancel(g *core.Group, cause error) bool {
	if !i.roll(i.opts.CancelEvery) {
		return false
	}
	if !g.Cancel(cause) {
		return false // already canceled by someone else
	}
	i.cancels.Add(1)
	return true
}

// roll advances the decision stream and reports a ~1/n hit; n ≤ 0 never
// fires, n == 1 always does.
func (i *Injector) roll(n int) bool {
	if n <= 0 {
		return false
	}
	if n == 1 {
		i.seq.Add(1)
		return true
	}
	return mix(i.seq.Add(1)^i.opts.Seed)%uint64(n) == 0
}

// mix is the SplitMix64 finalizer: a cheap uniform hash of the stream
// position, so consecutive rolls are decorrelated.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stats is a snapshot of the injector's activity.
type Stats struct {
	Calls    [core.NumFaultPoints]int64 // hook invocations per fault point
	Injected [core.NumFaultPoints]int64 // faults fired per fault point
	Cancels  int64                      // groups canceled by MaybeCancel
}

// Stats returns a racy snapshot of the fault counters.
func (i *Injector) Stats() Stats {
	var s Stats
	for p := range s.Calls {
		s.Calls[p] = i.calls[p].Load()
		s.Injected[p] = i.injected[p].Load()
	}
	s.Cancels = i.cancels.Load()
	return s
}
