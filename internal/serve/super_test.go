package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"simdstudy/internal/cv"
	"simdstudy/internal/faults"
	"simdstudy/internal/resilience"
	"simdstudy/internal/vec"
)

// panicInjector crashes every SIMD intrinsic — the serve-layer stand-in for
// a poisoned kernel path.
type panicInjector struct{}

func (panicInjector) V128(faults.Site, vec.V128) vec.V128 { panic("poisoned lane") }
func (panicInjector) V64(faults.Site, vec.V64) vec.V64    { panic("poisoned lane") }
func (panicInjector) Skew(faults.Site, int) int           { panic("poisoned lane") }

// serveWedge blocks the first intrinsic call it sees for stallFor —
// simulating a band wedged mid-request — and is a no-op afterwards.
type serveWedge struct {
	stallFor time.Duration
	fired    atomic.Bool
}

func (w *serveWedge) maybeWedge() {
	if w.fired.CompareAndSwap(false, true) {
		time.Sleep(w.stallFor)
	}
}

func (w *serveWedge) V128(_ faults.Site, v vec.V128) vec.V128 { w.maybeWedge(); return v }
func (w *serveWedge) V64(_ faults.Site, v vec.V64) vec.V64    { w.maybeWedge(); return v }
func (w *serveWedge) Skew(faults.Site, int) int               { w.maybeWedge(); return 0 }

// TestPanicResponseCarriesRequestID: a request whose kernel dispatch panics
// must come back as a 500 carrying the X-Request-ID header and the same ID
// in the body and the serve.panic event — the operator can join the
// client's error to the event stream.
func TestPanicResponseCarriesRequestID(t *testing.T) {
	s := NewServer(Config{})
	defer s.Close()
	s.SetFaultInjector(panicInjector{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/process?kernel=gaussian&isa=neon&width=64&height=48")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	id := resp.Header.Get("X-Request-ID")
	if id == "" {
		t.Fatal("panic 500 missing X-Request-ID header")
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["request_id"] != id {
		t.Errorf("body request_id = %v, header %q", body["request_id"], id)
	}

	found := false
	for _, ev := range s.Registry().Events() {
		if ev.Name == "serve.panic" {
			found = true
			if ev.Fields["request_id"] != id {
				t.Errorf("serve.panic request_id = %v, want %q", ev.Fields["request_id"], id)
			}
		}
	}
	if !found {
		t.Error("no serve.panic event emitted")
	}

	// The in-flight entry must not leak after the panic unwind.
	if _, live := get(t, ts.URL+"/livez"); len(live["in_flight"].([]any)) != 0 {
		t.Errorf("in_flight after panic = %v", live["in_flight"])
	}
}

// TestRepeatedPanicsQuarantine: repeated kernel panics quarantine the
// (kernel, ISA) pair, visible on /livez, and later requests for it succeed
// on the scalar path.
func TestRepeatedPanicsQuarantine(t *testing.T) {
	s := NewServer(Config{})
	defer s.Close()
	s.SetFaultInjector(panicInjector{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	url := ts.URL + "/process?kernel=gaussian&isa=neon&width=64&height=48"
	// The default policy quarantines after 3 panics.
	for i := 0; i < 3; i++ {
		if code, _ := get(t, url); code != http.StatusInternalServerError {
			t.Fatalf("poisoned request %d: status %d, want 500", i, code)
		}
	}
	if qs := s.Breakers().Quarantines(); len(qs) != 1 || qs[0].Reason != resilience.ReasonPanic {
		t.Fatalf("pair not quarantined for panic after 3 panics: %+v", qs)
	}
	if st := s.Breakers().State("GaussianBlur", "neon"); st != resilience.StateStuckOpen {
		t.Errorf("breaker state = %v, want stuck-open", st)
	}

	// Quarantined: the SIMD path (and with it the injector) never runs.
	if code, body := get(t, url); code != http.StatusOK {
		t.Fatalf("quarantined request: status %d (%v), want 200", code, body)
	}

	code, body := get(t, ts.URL+"/livez")
	if code != http.StatusOK {
		t.Fatalf("/livez status = %d", code)
	}
	if body["status"] != "degraded" {
		t.Errorf("/livez status = %v, want degraded", body["status"])
	}
	qs, _ := body["quarantined"].([]any)
	if len(qs) != 1 {
		t.Fatalf("/livez quarantined = %v", body["quarantined"])
	}
	q := qs[0].(map[string]any)
	if q["kernel"] != "GaussianBlur" || q["isa"] != "neon" || q["reason"] != "panic" || q["unix_nano"] == nil {
		t.Errorf("/livez quarantine entry = %v", q)
	}
}

// TestQuarantineJournalSurvivesRestart: a quarantine decision outlives the
// process — a second server over the same journal starts with the pair
// quarantined and its breaker stuck-open, without re-probing.
func TestQuarantineJournalSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "quarantine.journal")

	s := NewServer(Config{QuarantineJournal: path})
	defer s.Close()
	s.SetFaultInjector(panicInjector{})
	ts := httptest.NewServer(s.Handler())
	url := ts.URL + "/process?kernel=gaussian&isa=neon&width=64&height=48"
	for i := 0; i < 3; i++ {
		get(t, url)
	}
	ts.Close()
	if st := s.Breakers().State("GaussianBlur", "neon"); st != resilience.StateStuckOpen {
		t.Fatalf("pair not quarantined in first process: %v", st)
	}

	// "Restart": a fresh server over the same journal, with no injector —
	// the quarantine must hold without any new panics.
	s2 := NewServer(Config{QuarantineJournal: path})
	defer s2.Close()
	if qs := s2.Breakers().Quarantines(); len(qs) != 1 || qs[0].Kernel != "GaussianBlur" || qs[0].Reason != resilience.ReasonPanic {
		t.Fatalf("restarted server lost the quarantine: %+v", qs)
	}
	if st := s2.Breakers().State("GaussianBlur", "neon"); st != resilience.StateStuckOpen {
		t.Errorf("restarted breaker state = %v, want stuck-open", st)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if code, _ := get(t, ts2.URL+"/process?kernel=gaussian&isa=neon&width=64&height=48"); code != http.StatusOK {
		t.Fatalf("quarantined request on restarted server: %d, want 200", code)
	}

	// Other pairs are unaffected on the restarted server.
	if code, _ := get(t, ts2.URL+"/process?kernel=gaussian&isa=sse2&width=64&height=48"); code != http.StatusOK {
		t.Fatalf("unrelated pair on restarted server: %d, want 200", code)
	}
}

// TestLivezBaseline: a healthy idle server reports ok with empty
// supervision state.
func TestLivezBaseline(t *testing.T) {
	s := NewServer(Config{StallDeadline: time.Hour})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts.URL+"/livez")
	if code != http.StatusOK {
		t.Fatalf("/livez status = %d", code)
	}
	if body["status"] != "ok" {
		t.Errorf("status = %v", body["status"])
	}
	if n := len(body["in_flight"].([]any)); n != 0 {
		t.Errorf("in_flight = %d entries", n)
	}
	if body["stalls_total"] != float64(0) {
		t.Errorf("stalls_total = %v", body["stalls_total"])
	}
}

// TestLivezInFlight: an admitted request parked in its dispatch shows up on
// /livez with its kernel, ISA and age, and disappears once it completes.
func TestLivezInFlight(t *testing.T) {
	s := NewServer(Config{})
	defer s.Close()
	gate := make(chan struct{})
	testProcessStart = func() { <-gate } // receives immediately once closed
	defer func() { testProcessStart = nil }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/process?kernel=sobel&isa=sse2&width=64&height=48")
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	waitFor(t, func() bool {
		s.flightMu.Lock()
		defer s.flightMu.Unlock()
		return len(s.flight) == 1
	})

	_, body := get(t, ts.URL+"/livez")
	fls := body["in_flight"].([]any)
	if len(fls) != 1 {
		t.Fatalf("in_flight = %v", body["in_flight"])
	}
	fl := fls[0].(map[string]any)
	if fl["kernel"] != "SobelFilter" || fl["isa"] != "sse2" || fl["id"] == "" {
		t.Errorf("in_flight entry = %v", fl)
	}
	if _, ok := fl["age_ms"].(float64); !ok {
		t.Errorf("in_flight entry missing age_ms: %v", fl)
	}

	close(gate)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("parked request = %d, want 200", code)
	}
	if _, body := get(t, ts.URL+"/livez"); len(body["in_flight"].([]any)) != 0 {
		t.Errorf("in_flight after completion = %v", body["in_flight"])
	}
}

// TestStallResponse: a request wedged past Config.StallDeadline fails with
// the typed stall 500 and a request_stalls_total sample rather than holding
// its slot for the whole client deadline.
func TestStallResponse(t *testing.T) {
	s := NewServer(Config{
		StallDeadline: 25 * time.Millisecond,
		Parallel:      cv.ParallelConfig{Workers: 2, MinRowsPerBand: 1},
		Breaker:       resilience.BreakerConfig{MinSamples: 1, FailureRate: 1},
	})
	defer s.Close()
	s.SetFaultInjector(&serveWedge{stallFor: 500 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts.URL+"/process?kernel=gaussian&isa=neon&width=64&height=48&deadline_ms=10000")
	if code != http.StatusInternalServerError {
		t.Fatalf("stalled request = %d (%v), want 500", code, body)
	}
	if body["stall"] != true {
		t.Errorf("body = %v, want stall:true", body)
	}
	if body["request_id"] == "" || body["request_id"] == nil {
		t.Errorf("stall response missing request_id: %v", body)
	}
	if n := s.Registry().Snapshot()[`request_stalls_total{isa="neon",kernel="GaussianBlur"}`]; n != 1 {
		t.Errorf("request_stalls_total = %v, want 1", n)
	}
	if st := s.Breakers().State("GaussianBlur", "neon"); st != resilience.StateOpen {
		t.Errorf("breaker state = %v, want open", st)
	}
}
