package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"simdstudy/internal/obs"
)

// telemetryServer builds a small server + test listener for the live
// telemetry tests. SampleInterval stays zero: frames sample on demand, so
// no background goroutine outlives the test.
func telemetryServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(Config{MaxConcurrent: 2, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func fetch(t *testing.T, url string, header map[string]string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp, string(raw)
}

// TestTraceIDExemplarEndToEnd is the tentpole integration check: the trace
// ID a client sends rides the request context through admission, kernel
// dispatch and the cv observation layer, and comes back out of the
// OpenMetrics endpoint as an exemplar on both the request latency histogram
// and the kernel wall-time histogram.
func TestTraceIDExemplarEndToEnd(t *testing.T) {
	_, ts := telemetryServer(t)
	const trace = "it-trace-42"

	resp, _ := fetch(t, ts.URL+"/process?kernel=sobel&width=64&height=48&isa=scalar",
		map[string]string{"X-Request-ID": trace})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("process: HTTP %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != trace {
		t.Fatalf("X-Request-ID echoed %q, want %q", got, trace)
	}

	mresp, body := fetch(t, ts.URL+"/metrics?format=openmetrics", nil)
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Errorf("Content-Type = %q, want openmetrics", ct)
	}
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Error("OpenMetrics body does not end with # EOF")
	}
	want := `trace_id="` + trace + `"`
	assertFamilyExemplar := func(family string) {
		t.Helper()
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, family+"_bucket") && strings.Contains(line, want) {
				return
			}
		}
		t.Errorf("no %s bucket carries exemplar %s in:\n%s", family, want, body)
	}
	assertFamilyExemplar("request_seconds")
	assertFamilyExemplar("kernel_wall_seconds")

	// The classic format must stay exemplar-free for existing scrapers.
	_, classic := fetch(t, ts.URL+"/metrics", nil)
	if strings.Contains(classic, "trace_id") {
		t.Error("classic /metrics leaked exemplar syntax")
	}
}

// TestGeneratedTraceID checks the server-minted ID format (16 hex chars)
// and that a malformed inbound X-Request-ID is replaced, not echoed.
func TestGeneratedTraceID(t *testing.T) {
	_, ts := telemetryServer(t)

	resp, _ := fetch(t, ts.URL+"/healthz", nil)
	id := resp.Header.Get("X-Request-ID")
	if len(id) != 16 || !validTraceID(id) {
		t.Errorf("generated ID %q, want 16 hex chars", id)
	}

	resp, _ = fetch(t, ts.URL+"/healthz",
		map[string]string{"X-Request-ID": `evil" id {with spaces}`})
	got := resp.Header.Get("X-Request-ID")
	if strings.Contains(got, " ") || strings.Contains(got, `"`) || len(got) != 16 {
		t.Errorf("malformed inbound ID echoed as %q, want replacement", got)
	}

	resp, _ = fetch(t, ts.URL+"/healthz", map[string]string{"X-Request-ID": "ok_id-1.2"})
	if got := resp.Header.Get("X-Request-ID"); got != "ok_id-1.2" {
		t.Errorf("well-formed inbound ID replaced by %q", got)
	}
}

// TestSLOGaugesPublished: after traffic, the scrape carries burn-rate
// gauges for both objectives and every configured window.
func TestSLOGaugesPublished(t *testing.T) {
	_, ts := telemetryServer(t)
	for i := 0; i < 3; i++ {
		fetch(t, ts.URL+"/process?kernel=gaussian&width=32&height=32&isa=scalar", nil)
	}
	_, body := fetch(t, ts.URL+"/metrics", nil)
	for _, series := range []string{
		`slo_burn_rate{slo="availability",window="1m0s"}`,
		`slo_burn_rate{slo="latency",window="5m0s"}`,
		`slo_window_requests{window="1m0s"}`,
		"slo_latency_objective_seconds 0.25",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("scrape missing %s", series)
		}
	}
}

// TestMetricsStream drives the SSE endpoint to a bounded frame count and
// checks the frames parse as the documented protocol with the traffic the
// test generated visible in the per-kernel stats.
func TestMetricsStream(t *testing.T) {
	_, ts := telemetryServer(t)
	fetch(t, ts.URL+"/process?kernel=sobel&width=64&height=48&isa=scalar", nil)

	resp, err := http.Get(ts.URL + "/metrics/stream?frames=3&interval_ms=100&window_ms=60000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var frames []StreamFrame
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var f StreamFrame
		if err := json.Unmarshal([]byte(line[len("data: "):]), &f); err != nil {
			t.Fatalf("bad frame %q: %v", line, err)
		}
		frames = append(frames, f)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(frames) != 3 {
		t.Fatalf("got %d frames, want 3", len(frames))
	}

	last := frames[len(frames)-1]
	if last.Goroutines <= 0 {
		t.Errorf("frame has no goroutine count: %+v", last)
	}
	if len(last.SLO) == 0 {
		t.Errorf("frame has no SLO status: %+v", last)
	}
	found := false
	for _, k := range last.Kernels {
		if k.Kernel == "SobelFilter" {
			found = true
		}
	}
	if !found {
		t.Errorf("last frame kernels = %+v, want SobelFilter present", last.Kernels)
	}
	if _, err := time.Parse(time.RFC3339Nano, last.Time); err != nil {
		t.Errorf("frame time %q: %v", last.Time, err)
	}
}

// TestSLOBurnMath drives the tracker directly with a fake clock and checks
// the burn arithmetic: bad-fraction divided by budget fraction, per window,
// with shed requests burning availability but not latency.
func TestSLOBurnMath(t *testing.T) {
	clk := &testClock{t: time.Unix(10000, 0)}
	tr := newSLOTracker(SLOConfig{
		LatencyObjective:   100 * time.Millisecond,
		LatencyTarget:      0.99,  // 1% latency budget
		AvailabilityTarget: 0.999, // 0.1% availability budget
		Windows:            []time.Duration{time.Minute},
	}, clk.Now)

	// 100 requests over 50s: 90 good-fast, 5 slow (latency-bad), 5 shed
	// (avail-bad; their latency must not count).
	for i := 0; i < 100; i++ {
		clk.Advance(500 * time.Millisecond)
		switch {
		case i%20 == 0: // 5 of them
			tr.record(429, 10*time.Second)
		case i%20 == 1: // 5 of them
			tr.record(200, 200*time.Millisecond)
		default:
			tr.record(200, 5*time.Millisecond)
		}
	}
	burns := tr.burnRates()
	if len(burns) != 1 {
		t.Fatalf("burnRates len = %d", len(burns))
	}
	b := burns[0]
	if b.Requests != 100 {
		t.Fatalf("window requests = %d, want 100", b.Requests)
	}
	// Latency: 5/100 bad over a 1% budget -> burn 5.0. (Shed requests are
	// excluded from the latency objective even at 10s elapsed.)
	if b.Latency < 4.9 || b.Latency > 5.1 {
		t.Errorf("latency burn = %v, want ~5.0", b.Latency)
	}
	// Availability: 5/100 bad over a 0.1% budget -> burn 50.
	if b.Availability < 49 || b.Availability > 51 {
		t.Errorf("availability burn = %v, want ~50", b.Availability)
	}

	// Idle tail: a window that slides past all traffic burns zero.
	clk.Advance(10 * time.Minute)
	b = tr.burnRates()[0]
	if b.Requests != 0 || b.Latency != 0 || b.Availability != 0 {
		t.Errorf("idle burn = %+v, want zeros", b)
	}
}

// TestRequestSecondsCoversRequest: request_seconds times the whole
// /process request, from handler entry to the response written, so it
// includes the input synthesis that the response's kernel-only elapsed_us
// leaves out.
func TestRequestSecondsCoversRequest(t *testing.T) {
	s := NewServer(Config{})
	t.Cleanup(s.Close)
	_, body := serveRecorded(t, s.Handler(), "/process?kernel=gaussian&width=1024&height=768&isa=scalar")
	elapsedUS, _ := body["elapsed_us"].(float64)
	n, sum := s.reg.Histogram("request_seconds", requestBuckets,
		obs.L("kernel", kernels["gaussian"].name)).CountSum()
	if n != 1 {
		t.Fatalf("request_seconds count %d, want 1", n)
	}
	// elapsed_us truncates the kernel's time to whole microseconds, so an
	// observation of the kernel alone stays under elapsed_us+1.
	if sum*1e6 < elapsedUS+1 {
		t.Fatalf("request_seconds sum %.1f us, want more than the kernel's elapsed_us %.0f", sum*1e6, elapsedUS)
	}
}
