package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"simdstudy/internal/cv"
	"simdstudy/internal/memo"
	"simdstudy/internal/resilience"
)

func newMemoServer(t *testing.T, kernels ...string) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(Config{
		Memo: memo.Config{MaxBytes: 64 << 20, Kernels: kernels},
	})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getMemo(t *testing.T, url string) (string, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, raw)
	}
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", url, raw, err)
	}
	return resp.Header.Get("X-Memo"), body
}

// TestMemoHitMissOverHTTP: the first request computes (X-Memo: miss), an
// identical second request is served from the cache (X-Memo: hit) with a
// byte-identical plane — same checksum — and both carry X-Request-ID from
// the standard response path.
func TestMemoHitMissOverHTTP(t *testing.T) {
	s, ts := newMemoServer(t)
	url := ts.URL + "/process?kernel=gaussian&width=96&height=64&isa=neon&seed=9"

	outcome1, body1 := getMemo(t, url)
	if outcome1 != "miss" || body1["memo"] != "miss" {
		t.Fatalf("first request X-Memo=%q memo=%v; want miss", outcome1, body1["memo"])
	}
	outcome2, body2 := getMemo(t, url)
	if outcome2 != "hit" || body2["memo"] != "hit" {
		t.Fatalf("second request X-Memo=%q memo=%v; want hit", outcome2, body2["memo"])
	}
	if body1["checksum"] != body2["checksum"] {
		t.Fatalf("hit checksum %v != computed checksum %v", body2["checksum"], body1["checksum"])
	}
	if st := s.Memo().Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss", st)
	}

	// A different seed is different content: no false sharing.
	outcome3, body3 := getMemo(t, ts.URL+"/process?kernel=gaussian&width=96&height=64&isa=neon&seed=10")
	if outcome3 != "miss" {
		t.Fatalf("different content served %q", outcome3)
	}
	if body3["checksum"] == body1["checksum"] {
		t.Fatal("different inputs produced the same checksum (suspicious)")
	}
}

// TestMemoHitsCountTowardSLO: hit responses flow through the standard
// handleProcess wrapper, so the SLO tracker sees them exactly like
// computed responses.
func TestMemoHitsCountTowardSLO(t *testing.T) {
	s, ts := newMemoServer(t)
	url := ts.URL + "/process?kernel=threshold&width=64&height=48&isa=neon&seed=2"
	getMemo(t, url) // miss
	getMemo(t, url) // hit

	burns := s.slo.burnRates()
	if len(burns) == 0 {
		t.Fatal("no SLO windows tracked")
	}
	if got := burns[len(burns)-1].Requests; got != 2 {
		t.Fatalf("SLO tracker saw %d requests; want 2 (hits must not bypass it)", got)
	}
}

// TestMemoQuarantineInvalidation: quarantining a (kernel, ISA) breaker —
// the latch every quarantine route lands in — drops that pair's cached
// entries, so the next identical request recomputes on the demoted
// (scalar) path.
func TestMemoQuarantineInvalidation(t *testing.T) {
	s, ts := newMemoServer(t)
	url := ts.URL + "/process?kernel=gaussian&width=96&height=64&isa=neon&seed=3"

	if outcome, _ := getMemo(t, url); outcome != "miss" {
		t.Fatalf("first = %q", outcome)
	}
	if outcome, _ := getMemo(t, url); outcome != "hit" {
		t.Fatalf("second = %q", outcome)
	}

	s.Breakers().Quarantine("GaussianBlur", "neon", resilience.ReasonCorruption)
	if st := s.Memo().Stats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d; want 1", st.Invalidations)
	}
	outcome, body := getMemo(t, url)
	if outcome != "miss" {
		t.Fatalf("post-quarantine request = %q; want miss (entry invalidated)", outcome)
	}
	if body["breaker"] != "stuck-open" {
		t.Fatalf("breaker = %v; want stuck-open", body["breaker"])
	}
}

// TestMemoKernelEnableList: only listed kernels are memoized; the list
// accepts request names. Unmemoized kernels take the classic path with no
// X-Memo header.
func TestMemoKernelEnableList(t *testing.T) {
	_, ts := newMemoServer(t, "gaussian")
	if outcome, _ := getMemo(t, ts.URL+"/process?kernel=gaussian&width=64&height=48&isa=neon"); outcome != "miss" {
		t.Fatalf("enabled kernel = %q; want miss", outcome)
	}
	if outcome, _ := getMemo(t, ts.URL+"/process?kernel=threshold&width=64&height=48&isa=neon"); outcome != "" {
		t.Fatalf("disabled kernel carries X-Memo %q; want none", outcome)
	}
}

// TestMemoCoalescedOverHTTP: two concurrent identical requests execute
// the kernel once; the second is served a copy with X-Memo: coalesced.
// The leader is held inside its dispatch (testProcessStart) until the
// waiter has verifiably joined the flight.
func TestMemoCoalescedOverHTTP(t *testing.T) {
	s, ts := newMemoServer(t)
	gate := make(chan struct{})
	testProcessStart = func() { <-gate }
	defer func() { testProcessStart = nil }()

	url := ts.URL + "/process?kernel=median&width=96&height=64&isa=neon&seed=4"
	outcomes := make([]string, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			outcomes[i] = resp.Header.Get("X-Memo")
		}(i)
		// Wait until this request is participating in the flight before
		// starting (or releasing past) the next step, so the roles are
		// deterministic: request 0 leads, request 1 coalesces.
		deadline := time.Now().Add(5 * time.Second)
		for {
			if _, participants := s.Memo().InFlight(); participants > i {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("request never joined the flight")
			}
			time.Sleep(time.Millisecond)
		}
	}
	close(gate)
	wg.Wait()

	if outcomes[0] != "miss" || outcomes[1] != "coalesced" {
		t.Fatalf("outcomes = %v; want [miss coalesced]", outcomes)
	}
	if st := s.Memo().Stats(); st.Misses != 1 || st.Coalesced != 1 {
		t.Fatalf("stats = %+v; want 1 miss, 1 coalesced", st)
	}
}

// TestMemoDebugView: /memo reports enabled state, stats, and per-pair
// breakdown; a memo-less server reports {"enabled": false}.
func TestMemoDebugView(t *testing.T) {
	_, ts := newMemoServer(t)
	getMemo(t, ts.URL+"/process?kernel=sobel&width=64&height=48&isa=neon")

	_, body := getMemo(t, ts.URL+"/memo")
	if body["enabled"] != true {
		t.Fatalf("/memo enabled = %v", body["enabled"])
	}
	stats, ok := body["stats"].(map[string]any)
	if !ok || stats["misses"].(float64) != 1 || stats["entries"].(float64) != 1 {
		t.Fatalf("/memo stats = %v", body["stats"])
	}
	kv, ok := body["kernels"].(map[string]any)
	if !ok {
		t.Fatalf("/memo kernels = %v", body["kernels"])
	}
	if _, ok := kv["SobelFilter/neon"]; !ok {
		t.Fatalf("/memo kernels missing SobelFilter/neon: %v", kv)
	}

	off := NewServer(Config{})
	defer off.Close()
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	_, body = getMemo(t, tsOff.URL+"/memo")
	if body["enabled"] != false {
		t.Fatalf("memo-less /memo enabled = %v", body["enabled"])
	}
}

// TestMemoStreamFrame: the SSE frame carries the memo block when
// memoization is on, with the lifetime tallies filled in.
func TestMemoStreamFrame(t *testing.T) {
	s, ts := newMemoServer(t)
	url := ts.URL + "/process?kernel=gaussian&width=64&height=48&isa=neon&seed=6"
	getMemo(t, url)
	getMemo(t, url)

	f := s.buildFrame(time.Minute)
	if f.Memo == nil {
		t.Fatal("stream frame missing memo block")
	}
	if f.Memo.Hits != 1 || f.Memo.Misses != 1 || f.Memo.Entries != 1 {
		t.Fatalf("frame memo = %+v; want 1 hit, 1 miss, 1 entry", f.Memo)
	}
	if f.Memo.HitRatePct <= 0 {
		t.Fatalf("frame memo hit rate = %v; want > 0", f.Memo.HitRatePct)
	}

	off := NewServer(Config{})
	defer off.Close()
	if f := off.buildFrame(time.Minute); f.Memo != nil {
		t.Fatal("memo-less frame carries a memo block")
	}
}

// serveRecorded runs one request through h in process and returns its
// X-Memo header and decoded body.
func serveRecorded(t *testing.T, h http.Handler, url string) (string, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, rec.Code, rec.Body.Bytes())
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", url, rec.Body.Bytes(), err)
	}
	return rec.Header().Get("X-Memo"), body
}

// TestMemoRequestKeyedResponses: for every serving kernel and ISA, at an
// even and an odd size, on an unfused and a fused server, the checksum a
// miss computes, the checksum a hit returns and a memo-off server's
// checksum are equal. Requests that differ in exactly one of kernel, ISA,
// width, height, seed or fuse configuration never share an entry.
func TestMemoRequestKeyedResponses(t *testing.T) {
	fuses := map[string]cv.FuseConfig{"unfused": {}, "fused": {Enabled: true}}
	keys := map[string]memo.RequestKey{}
	for name, fuse := range fuses {
		t.Run(name, func(t *testing.T) {
			on := NewServer(Config{Fuse: fuse, Memo: memo.Config{MaxBytes: 64 << 20}})
			off := NewServer(Config{Fuse: fuse})
			t.Cleanup(on.Close)
			t.Cleanup(off.Close)
			hOn, hOff := on.Handler(), off.Handler()
			for _, kernel := range KernelNames() {
				for _, isa := range []string{"neon", "sse2", "scalar"} {
					for _, size := range [][2]int{{64, 48}, {33, 17}} {
						url := fmt.Sprintf("/process?kernel=%s&width=%d&height=%d&isa=%s&seed=5", kernel, size[0], size[1], isa)
						missOut, miss := serveRecorded(t, hOn, url)
						hitOut, hit := serveRecorded(t, hOn, url)
						_, plain := serveRecorded(t, hOff, url)
						if missOut != "miss" || hitOut != "hit" {
							t.Fatalf("%s: X-Memo %q then %q; want miss then hit", url, missOut, hitOut)
						}
						if miss["checksum"] != hit["checksum"] || miss["checksum"] != plain["checksum"] {
							t.Fatalf("%s: checksum miss %v, hit %v, memo off %v; want all equal",
								url, miss["checksum"], hit["checksum"], plain["checksum"])
						}
					}
				}
			}

			// One field changed at a time: each variant computes afresh and
			// takes an entry of its own.
			base := "/process?kernel=gaussian&width=64&height=48&isa=neon&seed=7"
			variants := []string{
				"/process?kernel=median&width=64&height=48&isa=neon&seed=7",
				"/process?kernel=gaussian&width=64&height=48&isa=sse2&seed=7",
				"/process?kernel=gaussian&width=65&height=48&isa=neon&seed=7",
				"/process?kernel=gaussian&width=64&height=49&isa=neon&seed=7",
				"/process?kernel=gaussian&width=64&height=48&isa=neon&seed=8",
			}
			serveRecorded(t, hOn, base)
			before := on.Memo().Stats().Entries
			if out, _ := serveRecorded(t, hOn, base); out != "hit" {
				t.Fatalf("base request = %q; want hit", out)
			}
			for _, v := range variants {
				if out, _ := serveRecorded(t, hOn, v); out != "miss" {
					t.Fatalf("%s after %s = %q; want miss", v, base, out)
				}
			}
			if got := on.Memo().Stats().Entries; got != before+len(variants) {
				t.Fatalf("entries = %d; want %d", got, before+len(variants))
			}
			for _, kernel := range KernelNames() {
				req := Request{Kernel: kernel, ISA: cv.ISANEON, Width: 64, Height: 48, Seed: 5}
				keys[name+"/"+kernel] = on.memoKey(req, kernels[kernel])
			}
		})
	}
	// The fuse configuration is part of every key: the same request on a
	// fused and an unfused server never maps to the same entry.
	for _, kernel := range KernelNames() {
		if a, b := keys["unfused/"+kernel], keys["fused/"+kernel]; a == b {
			t.Errorf("%s: fused and unfused servers share the memo key %+v", kernel, a)
		}
	}
}

// TestMemoHitSkipsSynthesis: a warm hit answers from the stored checksum,
// with no input synthesis and no plane. Synthesizing the 640x480 input
// alone allocates 300 KiB, so 100 hits through Handler() must average
// under 64 KiB each.
func TestMemoHitSkipsSynthesis(t *testing.T) {
	s := NewServer(Config{Memo: memo.Config{MaxBytes: 32 << 20}})
	t.Cleanup(s.Close)
	h := s.Handler()
	const url = "/process?kernel=gaussian&width=640&height=480&isa=neon&seed=1"
	if out, _ := serveRecorded(t, h, url); out != "miss" {
		t.Fatalf("first request = %q; want miss", out)
	}
	const hits = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < hits; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK || rec.Header().Get("X-Memo") != "hit" {
			t.Fatalf("hit %d: %d X-Memo %q", i, rec.Code, rec.Header().Get("X-Memo"))
		}
	}
	runtime.ReadMemStats(&after)
	perHit := (after.TotalAlloc - before.TotalAlloc) / hits
	t.Logf("%d B allocated per hit", perHit)
	if perHit >= 64<<10 {
		t.Fatalf("a warm hit allocates %d B; want under 64 KiB (no synthesis, no plane)", perHit)
	}
}

// TestMemoLeaderPanicReleasesFlight: a memo leader whose kernel panics
// leaves no flight behind. The request fails with a 500, the memo reports
// nothing in flight, and the identical request, sent with the injector
// detached, is computed well inside its deadline instead of waiting the
// deadline out on a flight whose leader is gone.
func TestMemoLeaderPanicReleasesFlight(t *testing.T) {
	s := NewServer(Config{FaultISA: "neon", Memo: memo.Config{MaxBytes: 16 << 20}})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	url := ts.URL + "/process?kernel=gaussian&width=64&height=48&isa=neon&seed=9&deadline_ms=3000"

	s.SetFaultInjector(panicInjector{})
	if code, body := get(t, url); code != http.StatusInternalServerError {
		t.Fatalf("poisoned request = %d %v, want 500", code, body)
	}
	if flights, participants := s.Memo().InFlight(); flights != 0 || participants != 0 {
		t.Fatalf("after the leader's panic: %d flights, %d participants in flight, want none", flights, participants)
	}

	s.SetFaultInjector(nil)
	start := time.Now()
	if code, body := get(t, url); code != http.StatusOK {
		t.Fatalf("identical request after the panic = %d %v, want 200", code, body)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("identical request took %v of its 3 s deadline", took)
	}
}
