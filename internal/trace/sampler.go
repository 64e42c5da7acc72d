package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Sampler is the worker-state sampling profiler: a background goroutine
// reads every worker's published State at a fixed frequency and counts the
// observations per state. The workers pay nothing — they already store
// their state (a plain owner store on their own line) whether or not a
// sampler runs — so the profiler gives a statistical running/stealing/
// parked/in-team CPU-time breakdown with zero hot-path cost, exposed
// through the registry as repro_worker_state_samples_total{state=...}.
type Sampler struct {
	n      int
	get    func(i int) State
	counts [NumStates]atomic.Int64
	ticks  atomic.Int64

	mu   sync.Mutex
	stop chan struct{} // non-nil while running
	wg   sync.WaitGroup
}

// NewSampler returns a stopped sampler over n workers; get returns worker
// i's current state and must be safe to call concurrently with the workers.
func NewSampler(n int, get func(i int) State) *Sampler {
	return &Sampler{n: n, get: get}
}

// Start launches the sampling goroutine at hz samples per second (each
// sample reads every worker once). hz ≤ 0 selects 100 Hz; hz is capped at
// 10 kHz. Starting a running sampler is a no-op; counters accumulate across
// stop/start cycles.
func (s *Sampler) Start(hz float64) {
	if hz <= 0 {
		hz = 100
	}
	if hz > 10000 {
		hz = 10000
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop != nil {
		return
	}
	stop := make(chan struct{})
	s.stop = stop
	s.wg.Add(1)
	go s.loop(time.Duration(float64(time.Second)/hz), stop)
}

func (s *Sampler) loop(period time.Duration, stop chan struct{}) {
	defer s.wg.Done()
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			s.ticks.Add(1)
			for i := 0; i < s.n; i++ {
				st := s.get(i)
				if st >= NumStates {
					st = StateIdle // defensive: corrupt state counts as idle
				}
				s.counts[st].Add(1)
			}
		}
	}
}

// Stop halts sampling and waits for the goroutine to exit. Idempotent.
func (s *Sampler) Stop() {
	s.mu.Lock()
	if s.stop != nil {
		close(s.stop)
		s.stop = nil
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Count returns the number of times state st has been observed.
func (s *Sampler) Count(st State) int64 {
	if st >= NumStates {
		return 0
	}
	return s.counts[st].Load()
}

// Ticks returns the number of completed sampling rounds (each round reads
// every worker, so the counts sum to Ticks × workers).
func (s *Sampler) Ticks() int64 { return s.ticks.Load() }
