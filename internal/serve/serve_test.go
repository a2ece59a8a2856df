package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"simdstudy/internal/cv"
	"simdstudy/internal/faults"
	"simdstudy/internal/image"
	"simdstudy/internal/vec"
)

// saboteur is a stateless injector that corrupts every ALU intrinsic
// result; stateless so it is trivially safe for concurrent Ops.
type saboteur struct{}

func (saboteur) V128(site faults.Site, v vec.V128) vec.V128 {
	if site == faults.SiteALU {
		v.SetU8(0, v.U8(0)^0x40)
	}
	return v
}
func (saboteur) V64(_ faults.Site, v vec.V64) vec.V64 { return v }
func (saboteur) Skew(faults.Site, int) int            { return 0 }

// testClock is a settable time source for deterministic breaker cooldowns.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// get fetches a URL and decodes the JSON body.
func get(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", url, err)
	}
	return resp.StatusCode, body
}

func TestParseRequest(t *testing.T) {
	lim := Limits{MaxPixels: 1 << 20, DefaultDeadline: 2 * time.Second, MaxDeadline: 10 * time.Second}
	cases := []struct {
		name  string
		query string
		ok    bool
	}{
		{"valid minimal", "kernel=gaussian&width=64&height=48", true},
		{"valid full", "kernel=sobel&width=64&height=48&isa=sse2&seed=7&deadline_ms=100", true},
		{"missing kernel", "width=64&height=48", false},
		{"unknown kernel", "kernel=warp&width=64&height=48", false},
		{"missing width", "kernel=gaussian&height=48", false},
		{"zero height", "kernel=gaussian&width=64&height=0", false},
		{"negative width", "kernel=gaussian&width=-3&height=48", false},
		{"dim not a number", "kernel=gaussian&width=abc&height=48", false},
		{"pixel bomb", "kernel=gaussian&width=1048576&height=1048576", false},
		{"bad isa", "kernel=gaussian&width=64&height=48&isa=avx512", false},
		{"bad seed", "kernel=gaussian&width=64&height=48&seed=-1", false},
		{"zero deadline", "kernel=gaussian&width=64&height=48&deadline_ms=0", false},
		{"bad deadline", "kernel=gaussian&width=64&height=48&deadline_ms=soon", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vals, err := url.ParseQuery(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			req, err := ParseRequest(vals, lim)
			if (err == nil) != tc.ok {
				t.Fatalf("err = %v, want ok=%v", err, tc.ok)
			}
			if err == nil && int64(req.Width)*int64(req.Height) > int64(lim.MaxPixels) {
				t.Errorf("accepted %dx%d over the pixel limit", req.Width, req.Height)
			}
		})
	}

	t.Run("defaults and capping", func(t *testing.T) {
		vals, _ := url.ParseQuery("kernel=gaussian&width=64&height=48")
		req, err := ParseRequest(vals, lim)
		if err != nil {
			t.Fatal(err)
		}
		if req.Deadline != lim.DefaultDeadline || req.Seed != 1 {
			t.Errorf("defaults: deadline %v seed %d", req.Deadline, req.Seed)
		}
		vals, _ = url.ParseQuery("kernel=gaussian&width=64&height=48&deadline_ms=99999999")
		req, err = ParseRequest(vals, lim)
		if err != nil {
			t.Fatal(err)
		}
		if req.Deadline != lim.MaxDeadline {
			t.Errorf("deadline %v not capped to %v", req.Deadline, lim.MaxDeadline)
		}
	})
}

func TestProcessSuccessAndDeterminism(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts.URL+"/process?kernel=gaussian&width=64&height=48&isa=neon")
	if code != http.StatusOK {
		t.Fatalf("status %d body %v", code, body)
	}
	if body["kernel"] != "GaussianBlur" || body["isa"] != "neon" || body["breaker"] != "closed" {
		t.Errorf("body = %v", body)
	}

	// Identical requests must produce identical checksums, and with no
	// faults the SIMD path must equal the scalar path bit-for-bit.
	_, again := get(t, ts.URL+"/process?kernel=gaussian&width=64&height=48&isa=neon")
	_, scalar := get(t, ts.URL+"/process?kernel=gaussian&width=64&height=48&isa=scalar")
	if body["checksum"] != again["checksum"] {
		t.Errorf("nondeterministic checksum: %v vs %v", body["checksum"], again["checksum"])
	}
	if body["checksum"] != scalar["checksum"] {
		t.Errorf("neon checksum %v != scalar checksum %v", body["checksum"], scalar["checksum"])
	}
}

func TestProcessBadRequests(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, q := range []string{
		"kernel=warp&width=64&height=48",
		"kernel=gaussian&width=0&height=48",
		"kernel=resize&width=1&height=1", // half-size destination collapses to 0x0
	} {
		if code, _ := get(t, ts.URL+"/process?"+q); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, code)
		}
	}
}

func TestHealthMetricsAndDrain(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d", code)
	}
	if code, body := get(t, ts.URL+"/readyz"); code != http.StatusOK || body["status"] != "ok" {
		t.Errorf("/readyz = %d %v", code, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(prom), "requests_total") {
		t.Errorf("/metrics missing requests_total:\n%s", prom)
	}

	s.StartDrain()
	if code, body := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Errorf("draining /readyz = %d %v", code, body)
	}
	// Draining rejects new routing but keeps serving accepted work.
	if code, _ := get(t, ts.URL+"/process?kernel=threshold&width=64&height=48"); code != http.StatusOK {
		t.Errorf("in-flight during drain = %d, want 200", code)
	}
}

// TestShedWhenQueueFull saturates a 1-slot, 1-deep server and asserts the
// overflow request is shed with 429 + Retry-After while admitted requests
// still complete.
func TestShedWhenQueueFull(t *testing.T) {
	s := NewServer(Config{MaxConcurrent: 1, QueueDepth: 1})
	gate := make(chan struct{})
	testProcessStart = func() { <-gate }
	defer func() { testProcessStart = nil }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	url := ts.URL + "/process?kernel=threshold&width=64&height=48"
	type result struct {
		code  int
		retry string
	}
	results := make(chan result, 2)
	do := func() {
		resp, err := http.Get(url)
		if err != nil {
			results <- result{code: -1}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		results <- result{code: resp.StatusCode, retry: resp.Header.Get("Retry-After")}
	}

	go do() // A: takes the slot, parks on the gate
	waitFor(t, func() bool { return len(s.adm.sem) == 1 })
	go do() // B: queues
	waitFor(t, func() bool { return s.adm.waiting.Load() == 1 })

	// C: queue full — must be shed synchronously.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}

	close(gate) // let A finish, then B
	for i := 0; i < 2; i++ {
		if r := <-results; r.code != http.StatusOK {
			t.Errorf("admitted request = %d, want 200", r.code)
		}
	}
	if n := s.reg.Snapshot()[`requests_shed_total{reason="queue"}`]; n != 1 {
		t.Errorf("requests_shed_total{reason=queue} = %v, want 1", n)
	}
}

// TestDeadlineWhileQueued parks the only slot and sends a request with a
// millisecond budget: it must be shed as a deadline, not left queued.
func TestDeadlineWhileQueued(t *testing.T) {
	s := NewServer(Config{MaxConcurrent: 1, QueueDepth: 4})
	gate := make(chan struct{})
	testProcessStart = func() { <-gate }
	defer func() { testProcessStart = nil }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/process?kernel=threshold&width=64&height=48")
		if err != nil {
			done <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	waitFor(t, func() bool { return len(s.adm.sem) == 1 })

	code, body := get(t, ts.URL+"/process?kernel=threshold&width=64&height=48&deadline_ms=1")
	if code != http.StatusTooManyRequests || body["reason"] != "deadline" {
		t.Errorf("queued past deadline = %d %v, want 429/deadline", code, body)
	}
	close(gate)
	if c := <-done; c != http.StatusOK {
		t.Errorf("parked request = %d, want 200", c)
	}
	if n := s.reg.Snapshot()[`requests_shed_total{reason="deadline"}`]; n != 1 {
		t.Errorf("requests_shed_total{reason=deadline} = %v, want 1", n)
	}
}

// TestPanicRecovery: a handler panic must become a 500 and a panics_total
// sample, not a dead process.
func TestPanicRecovery(t *testing.T) {
	s := NewServer(Config{})
	testProcessStart = func() { panic("boom") }
	defer func() { testProcessStart = nil }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, _ := get(t, ts.URL+"/process?kernel=threshold&width=64&height=48")
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking request = %d, want 500", code)
	}
	if n := s.reg.Snapshot()["panics_total"]; n != 1 {
		t.Errorf("panics_total = %v, want 1", n)
	}
	// The server keeps serving afterwards.
	testProcessStart = nil
	if code, _ := get(t, ts.URL+"/process?kernel=threshold&width=64&height=48"); code != http.StatusOK {
		t.Errorf("request after panic = %d, want 200", code)
	}
}

// waitFor polls cond for up to 2 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 2s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFusedServing: with fusion enabled, the multi-stage kernels must
// return the same checksums as a staged server — byte-identical responses
// — and the /metrics endpoint must carry a growing
// fused_plane_bytes_saved_total.
func TestFusedServing(t *testing.T) {
	staged := NewServer(Config{})
	tsStaged := httptest.NewServer(staged.Handler())
	defer tsStaged.Close()
	fused := NewServer(Config{Fuse: cv.FuseConfig{Enabled: true, StripRows: 17}})
	tsFused := httptest.NewServer(fused.Handler())
	defer tsFused.Close()

	for _, q := range []string{
		"kernel=canny&width=130&height=97&isa=neon",
		"kernel=canny&width=130&height=97&isa=sse2",
		"kernel=edges&width=130&height=97&isa=neon",
		"kernel=gaussian&width=64&height=48&isa=neon", // unfused kernel unaffected
	} {
		code, want := get(t, tsStaged.URL+"/process?"+q)
		if code != http.StatusOK {
			t.Fatalf("staged %s: status %d body %v", q, code, want)
		}
		code, got := get(t, tsFused.URL+"/process?"+q)
		if code != http.StatusOK {
			t.Fatalf("fused %s: status %d body %v", q, code, got)
		}
		if got["checksum"] != want["checksum"] {
			t.Errorf("%s: fused checksum %v != staged %v", q, got["checksum"], want["checksum"])
		}
	}

	resp, err := http.Get(tsFused.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "fused_plane_bytes_saved_total") {
		t.Errorf("fused server metrics lack fused_plane_bytes_saved_total:\n%s", b)
	}
	if strings.Contains(string(b), `fused_plane_bytes_saved_total{isa="neon",kernel="Canny"} 0`) {
		t.Errorf("fused Canny bytes-saved counter is zero")
	}
}

// TestSynthesizeBandsMatchSerial: a server that bands synthesis over the
// par pool builds the same source planes as image.Synthetic and
// image.SyntheticF32.
func TestSynthesizeBandsMatchSerial(t *testing.T) {
	for _, workers := range []int{0, 2, 5, -1} {
		s := NewServer(Config{Parallel: cv.ParallelConfig{Workers: workers}})
		for _, sh := range [][2]int{{640, 480}, {33, 65}, {7, 1}} {
			res := image.Resolution{Width: sh[0], Height: sh[1]}
			if got := s.synthesize(image.U8, sh[0], sh[1], 3); !got.EqualTo(image.Synthetic(res, 3)) {
				t.Errorf("workers %d %dx%d: U8 plane differs from Synthetic", workers, sh[0], sh[1])
			}
			if got := s.synthesize(image.F32, sh[0], sh[1], 3); !got.EqualTo(image.SyntheticF32(res, 3)) {
				t.Errorf("workers %d %dx%d: F32 plane differs from SyntheticF32", workers, sh[0], sh[1])
			}
		}
		s.Close()
	}
}
