package repro

import (
	"context"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Metrics is a registry of metric families rendering the Prometheus text
// exposition format (version 0.0.4) without external dependencies. Obtain
// one from Runtime.Metrics or Scheduler.Metrics, or build your own with
// NewMetrics and Scheduler.RegisterMetrics, then expose it with
// ServeMetrics or embed it in an existing HTTP mux (a *Metrics is an
// http.Handler).
type Metrics = stats.Registry

// MetricLabel is one name/value label of a metric series.
type MetricLabel = stats.Label

// NewMetrics returns an empty metrics registry for callers composing their
// own metric families beside the scheduler's.
func NewMetrics() *Metrics { return stats.NewRegistry() }

// MetricsServer is a minimal HTTP server exposing one Metrics registry at
// /metrics, plus an on-demand execution-trace capture at /debug/trace once
// SetTraceSource installs a scheduler. The registry may be installed (and
// swapped) after the server is already listening, and scrapes racing a swap
// see either registry, never a torn one.
type MetricsServer struct {
	ln  net.Listener
	srv *http.Server
	reg atomic.Pointer[stats.Registry]
	src atomic.Pointer[Scheduler]

	mu       sync.Mutex
	captures map[*Scheduler]capture // /debug/trace windows in flight, per source
}

// capture counts the /debug/trace windows open on one scheduler; stop
// records that its tracing was off before the first of them began.
type capture struct {
	n    int
	stop bool
}

// ServeMetrics listens on addr (e.g. ":9090", or "127.0.0.1:0" for an
// ephemeral port — read the chosen one back with Addr) and serves reg at
// /metrics. A nil reg is allowed: the endpoint answers 503 until
// SetRegistry installs one. Release the port with Close.
func ServeMetrics(addr string, reg *Metrics) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	m := &MetricsServer{ln: ln, captures: map[*Scheduler]capture{}}
	if reg != nil {
		m.reg.Store(reg)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", m.handle)
	mux.HandleFunc("/debug/trace", m.handleTrace)
	m.srv = &http.Server{Handler: mux}
	go m.srv.Serve(ln)
	return m, nil
}

func (m *MetricsServer) handle(w http.ResponseWriter, req *http.Request) {
	reg := m.reg.Load()
	if reg == nil {
		http.Error(w, "metrics: no registry installed", http.StatusServiceUnavailable)
		return
	}
	reg.ServeHTTP(w, req)
}

// SetTraceSource installs (or replaces) the scheduler whose execution
// tracer /debug/trace captures. Safe to call concurrently with requests; a
// nil source makes the endpoint answer 503.
func (m *MetricsServer) SetTraceSource(s *Scheduler) { m.src.Store(s) }

// handleTrace serves GET /debug/trace?sec=0.25&format=chrome|text: it turns
// tracing on for a bounded window (sec clamped to [0.01, 10]; overlapping
// windows keep it on until the last one ends, which restores the state from
// before the first), then returns only the events recorded during the
// window — Chrome trace-event JSON by default, the compact text dump with
// format=text.
func (m *MetricsServer) handleTrace(w http.ResponseWriter, req *http.Request) {
	s := m.src.Load()
	if s == nil {
		http.Error(w, "trace: no scheduler installed (SetTraceSource)", http.StatusServiceUnavailable)
		return
	}
	sec := 0.25
	if v := req.URL.Query().Get("sec"); v != "" {
		// ParseFloat accepts "NaN", which no clamp below compares against.
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(f) {
			http.Error(w, "trace: bad sec parameter "+strconv.Quote(v), http.StatusBadRequest)
			return
		}
		sec = f
	}
	if sec < 0.01 {
		sec = 0.01
	}
	if sec > 10 {
		sec = 10
	}
	from := trace.Now()
	m.openCapture(s)
	time.Sleep(time.Duration(sec * float64(time.Second)))
	m.closeCapture(s)
	snap := s.TraceSnapshot().Since(from)
	if req.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, snap.Text())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	snap.WriteChrome(w)
}

// openCapture turns s's tracing on for one more /debug/trace window.
func (m *MetricsServer) openCapture(s *Scheduler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.captures[s]
	if c.n == 0 {
		c.stop = !s.TraceActive()
	}
	c.n++
	m.captures[s] = c
	s.StartTrace()
}

// closeCapture ends one window on s; the last to end turns tracing off if
// it was off before the first began.
func (m *MetricsServer) closeCapture(s *Scheduler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.captures[s]
	if c.n--; c.n > 0 {
		m.captures[s] = c
		return
	}
	delete(m.captures, s)
	if c.stop {
		s.StopTrace()
	}
}

// Addr returns the listening address (resolving ":0" to the chosen port).
func (m *MetricsServer) Addr() string { return m.ln.Addr().String() }

// URL returns the full scrape URL of the /metrics endpoint.
func (m *MetricsServer) URL() string { return "http://" + m.Addr() + "/metrics" }

// SetRegistry installs (or replaces) the served registry. Safe to call
// concurrently with scrapes.
func (m *MetricsServer) SetRegistry(reg *Metrics) { m.reg.Store(reg) }

// Close shuts the server down, gracefully draining in-flight scrapes for up
// to two seconds before closing their connections.
func (m *MetricsServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := m.srv.Shutdown(ctx)
	if err != nil {
		m.srv.Close()
	}
	return err
}
