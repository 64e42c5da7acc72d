package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/dist"
	"repro/internal/stats"
)

// runConfig is one run: one workload, one seed, one window, traced or not.
type runConfig struct {
	name     string
	sz       sizing
	seed     uint64
	seconds  float64
	traced   bool
	spansOut string // traced: path of the spans file ("" writes none)
}

// runResult is everything one run measured. The untraced run fills the
// end-to-end part; the traced run additionally fills the layer part.
type runResult struct {
	setupS []float64 // every set-up of the run, seconds

	attempted int
	outcomes  [numOutcomes]int
	sloMet    int     // requests verified correct within the latency limit
	elapsedNS int64   // window start → last completion
	lat       []int64 // ascending public-call latencies of verified requests, ns
	late      []int64 // open loop: ascending generator lateness, ns

	cpuNS      int64 // process user+sys CPU over the window
	allocBytes uint64
	gcCycles   uint32
	gcPauseNS  uint64

	// Untraced run only: the end-to-end values of every segment of the
	// window; endToEnd reports quantiles over them.
	segs []segment

	// Traced run only.
	counters   map[string]float64 // deltas over the window of the Runtime's metrics registry
	admWait    stats.HistSnapshot // inject-to-take wait of the window's requests
	refReqPerS float64            // throughput of the untraced reference half
	spans      spanStats
	spanDrops  int
}

func (r *runResult) completed() int { return r.outcomes[outOK] }
func (r *runResult) failed() int    { return r.attempted - r.outcomes[outOK] }

// reqPerS is verified completed requests over the window.
func (r *runResult) reqPerS() float64 { return float64(r.completed()) / (float64(r.elapsedNS) / 1e9) }

// segment is the timed end-to-end result of one segment of an untraced window.
type segment struct {
	ReqPerS     float64 `json:"req_per_s"`
	P50MS       float64 `json:"latency_p50_ms"`
	CPUMSPerReq float64 `json:"cpu_ms_per_req"`
}

func (r *runResult) segment() segment {
	done := float64(r.completed())
	p50, _ := percentile(r.lat, 50)
	return segment{
		ReqPerS:     r.reqPerS(),
		P50MS:       float64(p50) / 1e6,
		CPUMSPerReq: float64(r.cpuNS) / 1e6 / done,
	}
}

// add folds the next segment of the window into r: counts and times add up;
// the caller sorts the latency samples once after the last segment.
func (r *runResult) add(seg *runResult) {
	r.segs = append(r.segs, seg.segment())
	r.attempted += seg.attempted
	for o, n := range seg.outcomes {
		r.outcomes[o] += n
	}
	r.sloMet += seg.sloMet
	r.elapsedNS += seg.elapsedNS
	r.lat = append(r.lat, seg.lat...)
	r.late = append(r.late, seg.late...)
	r.cpuNS += seg.cpuNS
	r.allocBytes += seg.allocBytes
	r.gcCycles += seg.gcCycles
	r.gcPauseNS += seg.gcPauseNS
}

// clientState is one client goroutine's private record of the window.
type clientState struct {
	id       int
	cl       client
	env      callEnv
	lat      []int64
	late     []int64
	outcomes [numOutcomes]int
	sloMet   int
	lastEnd  int64
	spans    *spanBuf // nil when untraced
	every    int
}

// do runs one request: stage, call, verify, each timed on its own. due is
// the absolute due time of an open-loop request (latency and the request
// span start there) or −1 in a closed loop.
func (cs *clientState) do(rq request, reqID int, due, slo int64, record bool) outcome {
	t0 := now()
	cs.cl.stage(rq)
	t1 := now()
	cs.env.layered = false
	err := cs.cl.call(rq, &cs.env)
	t2 := now()
	out := cs.cl.verify(rq, err)
	t3 := now()
	cs.lastEnd = t3

	if !record {
		return out
	}
	from := t1
	if due >= 0 {
		from = due
		if len(cs.late) < cap(cs.late) {
			cs.late = append(cs.late, t0-due)
		}
	}
	cs.outcomes[out]++
	if out == outOK {
		if len(cs.lat) < cap(cs.lat) {
			cs.lat = append(cs.lat, t2-from)
		}
		if t2-from <= slo {
			cs.sloMet++
		}
	}
	if cs.spans != nil && reqID%cs.every == 0 {
		cs.recordSpans(int32(reqID), due, t0, t1, t2, t3)
	}
	return out
}

func (cs *clientState) recordSpans(req int32, due, t0, t1, t2, t3 int64) {
	b := cs.spans
	start := t0
	if due >= 0 {
		start = due
	}
	root := b.add(noParent, req, cs.id, spRequest, start, t3)
	if due >= 0 {
		b.add(root, req, cs.id, spGenWait, due, t0)
	}
	b.add(root, req, cs.id, spStageInput, t0, t1)
	call := b.add(root, req, cs.id, spRuntimeCall, t1, t2)
	if cs.env.layered {
		// A worker may start the root body before Spawn returns to the
		// caller; the queue wait is then empty, never negative.
		execFrom := max(cs.env.spawnRet, cs.env.rootStart)
		b.add(call, req, cs.id, spGroupSpawn, t1, cs.env.spawnRet)
		b.add(call, req, cs.id, spQueueWait, cs.env.spawnRet, execFrom)
		b.add(call, req, cs.id, spExecAndWake, execFrom, t2)
	}
	b.add(root, req, cs.id, spVerify, t2, t3)
}

// instance is one set-up of a workload: inputs, a Runtime, warmed clients.
type instance struct {
	wl      workload
	spec    spec
	rt      *repro.Runtime[int32]
	clients []*clientState
	rngs    []*dist.RNG // per client (closed loop) or [0] = schedule (open loop)
}

// setUp prepares inputs and oracles, starts a Runtime, makes the clients and
// runs the fixed-count warm-up. Everything here is setup_s.
func setUp(cfg runConfig) (*instance, error) {
	p := runtime.NumCPU()
	wl, err := newWorkload(cfg.name, cfg.sz, p)
	if err != nil {
		return nil, err
	}
	sp := wl.spec()
	wl.prepare(cfg.seed)
	opts := sp.opts
	opts.P = p
	if sp.workers > 0 {
		opts.P = sp.workers
	}
	in := &instance{wl: wl, spec: sp, rt: repro.NewRuntime[int32](opts)}
	streamsN := sp.clients
	if sp.open {
		streamsN = 1
	}
	_, in.rngs = streams(cfg.seed, streamsN)

	latCap := int(float64(sp.maxRate)*cfg.seconds) + 1
	if sp.open {
		latCap = int(cfg.sz.openRate*cfg.seconds) + 1
	}
	for c := 0; c < sp.clients; c++ {
		cs := &clientState{id: c, cl: wl.newClient(in.rt), every: sp.spanEvery}
		cs.lat = make([]int64, 0, latCap)
		if sp.open {
			cs.late = make([]int64, 0, latCap)
		}
		in.clients = append(in.clients, cs)
	}

	// Warm-up: a fixed count of unrecorded requests per client, all clients
	// at once as in the window, drawn from a generator of their own so the
	// measured sequences start at their first draw.
	warm := dist.NewRNG(cfg.seed ^ 0x77a2)
	errs := make([]error, len(in.clients))
	var wg sync.WaitGroup
	for c, cs := range in.clients {
		wg.Add(1)
		go func(cs *clientState, rng *dist.RNG, err *error) {
			defer wg.Done()
			for i := 0; i < sp.warmup; i++ {
				rq := wl.next(rng, i)
				cs.env.windowStart = now() // an open-loop warm-up request is due now
				if out := cs.do(rq, i, -1, 0, false); out != outOK {
					*err = fmt.Errorf("%s: warm-up request %d (%s) ended %s", sp.name, i, wl.label(rq), outcomeNames[out])
				}
			}
		}(cs, warm.Split(), &errs[c])
		if sp.open {
			wg.Wait() // issuer slots warm one after the other: the slots are scratch, not load
		}
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		in.rt.Close()
		return nil, err
	}
	return in, nil
}

// spanCap is the span capacity of one client; spec.spanEvery is chosen so
// that a full-length window stays below it.
const spanCap = 1 << 17

// runOne sets the workload up (setupReps times when untraced, once when
// traced), runs the window and tears down.
//
// An untraced run measures one window of cfg.seconds in back-to-back
// segments of segmentSeconds on one instance, each with its own counts, CPU
// time and latency sample; the end-to-end metrics are quantiles over the
// segments (endToEnd), so that a slow phase of the host that covers part of
// the window does not move them. A traced run splits the same length in two on
// one instance: an untraced reference half, then the traced half with the
// execution tracer, the state profiler and the span recorder on. Their
// throughput ratio is the tracing overhead, paired inside one process; the
// layer numbers come from the traced half.
func runOne(cfg runConfig) (*runResult, error) {
	reps := setupReps
	if cfg.traced {
		reps = 1
	}
	var in *instance
	var setupS []float64
	for i := 0; i < reps; i++ {
		if in != nil {
			in.rt.Close()
		}
		t0 := time.Now()
		var err error
		if in, err = setUp(cfg); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer in.rt.Close()

	if !cfg.traced {
		res := &runResult{setupS: setupS}
		k := max(1, int(cfg.seconds/segmentSeconds+0.5))
		for i := 0; i < k; i++ {
			seg, err := in.window(cfg, cfg.seconds/float64(k), false)
			if err != nil {
				return nil, err
			}
			res.add(seg)
		}
		slices.Sort(res.lat)
		slices.Sort(res.late)
		return res, nil
	}
	ref, err := in.window(cfg, cfg.seconds/2, false)
	if err != nil {
		return nil, err
	}
	res, err := in.window(cfg, cfg.seconds/2, true)
	if err != nil {
		return nil, err
	}
	res.setupS, res.refReqPerS = setupS, ref.reqPerS()
	spans, dropped := mergeSpans(in.spanBufs())
	res.spans, res.spanDrops = analyzeSpans(spans), dropped
	if res.spans.closureErr > 0.01 {
		return nil, fmt.Errorf("%s: span self times miss a request span by %.2f %%", cfg.name, 100*res.spans.closureErr)
	}
	if cfg.spansOut != "" {
		if err := writeSpans(cfg.spansOut, cfg.name, cfg.seed, in.spec.spanEvery, spans, res.spans.self, dropped); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (in *instance) spanBufs() []*spanBuf {
	var bufs []*spanBuf
	for _, cs := range in.clients {
		if cs.spans != nil {
			bufs = append(bufs, cs.spans)
		}
	}
	return bufs
}

// window measures one window on a set-up instance. Successive windows on
// one instance continue the clients' request sequences.
func (in *instance) window(cfg runConfig, seconds float64, traced bool) (*runResult, error) {
	res := &runResult{}
	for _, cs := range in.clients {
		cs.lat, cs.late = cs.lat[:0], cs.late[:0]
		cs.outcomes, cs.sloMet = [numOutcomes]int{}, 0
		cs.spans = nil
		if traced {
			cs.spans = newSpanBuf(spanCap)
		}
	}
	var sched []request
	if in.spec.open {
		sched = openSchedule(in.wl, in.rngs[0], cfg.sz.openRate, seconds)
	}
	runtime.GC() // start the window without the garbage of set-up

	s := in.rt.Scheduler()
	var counters0 map[string]float64
	var wait0 stats.HistSnapshot
	if traced {
		in.rt.StartTrace()
		in.rt.StartProfiler(profilerHz)
		counters0, wait0 = in.rt.Metrics().Values(), s.AdmissionWait()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTimeNS()
	start := now()

	if in.spec.open {
		res.attempted = len(sched)
		res.outcomes[outRefused] = runOpen(in, sched, start, int64(cfg.sz.openSLO))
	} else {
		runClosed(in, start, start+int64(seconds*1e9))
	}

	cpu1 := cpuTimeNS()
	runtime.ReadMemStats(&ms1)
	if traced {
		in.rt.StopProfiler()
		in.rt.StopTrace()
		res.counters = in.rt.Metrics().Values()
		for name, v := range counters0 {
			if !strings.HasSuffix(name, "_peak_pending") { // a high-water mark, not a counter
				res.counters[name] -= v
			}
		}
		res.admWait = s.AdmissionWait()
		for i, n := range wait0.Counts {
			res.admWait.Counts[i] -= n
		}
		res.admWait.Count -= wait0.Count
		res.admWait.Sum -= wait0.Sum
	}
	res.cpuNS = cpu1 - cpu0
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.gcCycles = ms1.NumGC - ms0.NumGC
	res.gcPauseNS = ms1.PauseTotalNs - ms0.PauseTotalNs

	end := start
	for _, cs := range in.clients {
		if len(cs.lat) == cap(cs.lat) {
			return nil, fmt.Errorf("%s: a client filled its latency buffer of %d samples; raise the workload's maxRate", in.spec.name, cap(cs.lat))
		}
		res.lat = append(res.lat, cs.lat...)
		res.late = append(res.late, cs.late...)
		res.sloMet += cs.sloMet
		for o, n := range cs.outcomes {
			res.outcomes[o] += n
			if !in.spec.open {
				res.attempted += n
			}
		}
		end = max(end, cs.lastEnd)
	}
	res.elapsedNS = end - start
	slices.Sort(res.lat)
	slices.Sort(res.late)
	if res.completed() == 0 {
		return nil, fmt.Errorf("%s: no request completed in the window (outcomes %v)", in.spec.name, res.outcomes)
	}
	return res, nil
}

// runClosed runs the closed loop: every client sends its next request as
// soon as the previous one is verified, until the deadline passes; a request
// in flight at the deadline finishes and counts.
func runClosed(in *instance, start, deadline int64) {
	var wg sync.WaitGroup
	for c, cs := range in.clients {
		wg.Add(1)
		go func(cs *clientState, rng *dist.RNG) {
			defer wg.Done()
			cs.env.windowStart = start
			for i := 0; now() < deadline; i++ {
				cs.do(in.wl.next(rng, i), i, -1, math.MaxInt64, true)
			}
		}(cs, in.rngs[c])
	}
	wg.Wait()
}

// openSchedule lays n = rate·seconds requests out over the window: arrival
// events with exponential gaps, every burstEvery-th event carrying burstSize
// requests due at the same instant, the whole rescaled so that the event
// after the last one would fall on the window's end. Conditioning a Poisson
// process on its count this way keeps the arrivals Poisson but makes the
// offered load the same for every seed.
func openSchedule(wl workload, rng *dist.RNG, rate, seconds float64) []request {
	n := int(rate*seconds + 0.5)
	sched := make([]request, 0, n)
	at := make([]float64, 0, n)
	t := 0.0
	for ev := 0; len(sched) < n; ev++ {
		t += -math.Log(1 - rng.Float64())
		k := 1
		if ev%burstEvery == burstEvery-1 {
			k = burstSize
		}
		for j := 0; j < k && len(sched) < n; j++ {
			sched = append(sched, wl.next(rng, len(sched)))
			at = append(at, t)
		}
	}
	t += -math.Log(1 - rng.Float64())
	for i := range sched {
		sched[i].Due = int64(at[i] / t * seconds * 1e9)
	}
	return sched
}

const (
	burstEvery = 16
	burstSize  = 8
)

// runOpen runs the open loop: a generator releases every request at its due
// time to the issuer slots, whatever happened to the earlier ones. A request
// that finds no slot is refused (a failure). It returns the refused count.
func runOpen(in *instance, sched []request, start, slo int64) (refused int) {
	type job struct {
		rq request
		id int
	}
	// Buffer = issuer slots: a released request waits here only while every
	// slot is busy, and a full buffer is the refusal condition.
	work := make(chan job, len(in.clients))
	var wg sync.WaitGroup
	for _, cs := range in.clients {
		wg.Add(1)
		go func(cs *clientState) {
			defer wg.Done()
			cs.env.windowStart = start
			for j := range work {
				cs.do(j.rq, j.id, start+j.rq.Due, slo, true)
			}
		}(cs)
	}
	for i, rq := range sched {
		sleepUntil(start + rq.Due)
		select {
		case work <- job{rq, i}:
		default:
			refused++
		}
	}
	close(work)
	wg.Wait()
	return refused
}

// sleepUntil returns at t or as soon after it as the Go scheduler lets the
// generator run; how late that was is reported as generator lateness.
func sleepUntil(t int64) {
	if d := t - now(); d > int64(200*time.Microsecond) {
		time.Sleep(time.Duration(d) - 100*time.Microsecond)
	}
	for now() < t {
		runtime.Gosched()
	}
}

// cpuTimeNS is the process's user+system CPU time so far.
func cpuTimeNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
