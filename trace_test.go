package repro

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestRuntimeTrace exercises the Runtime-level tracing surface: toggling,
// Chrome export through WriteTrace (validated by this repo's own schema
// checker), the text dump, and the sampling profiler delegates. The Filter
// on 65536 elements is a team request at P = 2, so the validated export
// holds team executions and barrier slices too.
func TestRuntimeTrace(t *testing.T) {
	rt := NewRuntime[int32](Options{P: 2})
	defer rt.Close()

	rt.StartTrace()
	rt.StartProfiler(997)
	rt.SortMixedMode(GenerateInput(Random, 20000, 1), MMOptions{})
	rt.SortForkJoin(GenerateInput(Random, 20000, 2))
	src := GenerateInput(Random, 65536, 3)
	rt.Filter(src, make([]int32, len(src)), func(v int32) bool { return v&1 == 0 })
	rt.StopProfiler()
	rt.StopTrace()

	var buf bytes.Buffer
	if err := rt.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	n, err := trace.ValidateChrome(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	if n < 100 {
		t.Fatalf("trace of two 20k sorts and a 64k filter has only %d events", n)
	}
	txt := rt.TraceText()
	for _, want := range []string{"spawn", "inject-enqueue", "barrier-enter"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("TraceText lacks %q:\n%.2000s", want, txt)
		}
	}
}

// TestDebugTraceEndpoint exercises /debug/trace on the metrics server: 503
// until a trace source is wired, then a short capture returned as Chrome
// JSON (the default) or a text dump (?format=text), and parameter
// validation on the window length.
func TestDebugTraceEndpoint(t *testing.T) {
	srv, err := ServeMetrics("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr() + "/debug/trace"

	get := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, _ := get(base); code != http.StatusServiceUnavailable {
		t.Fatalf("no-source status = %d, want 503", code)
	}

	rt := NewRuntime[int32](Options{P: 2})
	defer rt.Close()
	srv.SetTraceSource(rt.Scheduler())

	for _, bad := range []string{"bogus", "NaN"} {
		if code, _ := get(base + "?sec=" + bad); code != http.StatusBadRequest {
			t.Fatalf("sec=%s status = %d, want 400", bad, code)
		}
	}

	// Keep the scheduler busy through both capture windows so the traces
	// have content.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rt.SortForkJoin(GenerateInput(Random, 4096, uint64(i)))
		}
	}()

	code, body := get(base + "?sec=0.05")
	if code != http.StatusOK {
		t.Fatalf("capture status = %d, want 200\n%s", code, body)
	}
	if _, err := trace.ValidateChrome([]byte(body)); err != nil {
		t.Fatalf("captured trace invalid: %v\n%.2000s", err, body)
	}
	if rt.Scheduler().TraceActive() {
		t.Fatal("one-shot capture left tracing enabled")
	}

	code, body = get(base + "?sec=0.05&format=text")
	if code != http.StatusOK {
		t.Fatalf("text capture status = %d, want 200", code)
	}
	if !strings.Contains(body, "ms") || !strings.Contains(body, "spawn") {
		t.Fatalf("text capture does not look like a dump:\n%.500s", body)
	}
	close(stop)
	<-done
}
