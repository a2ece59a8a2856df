package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"simdstudy/internal/faults"
	"simdstudy/internal/memo"
	"simdstudy/internal/resilience"
)

// quarantineRoute drives one route to "this pair is terminally demoted".
type quarantineRoute struct {
	name string
	why  resilience.Reason
	cfg  Config
	// latch drives GaussianBlur/neon stuck-open, using request seeds from
	// 100 up so no warm memo key is touched.
	latch func(t *testing.T, s *Server, base string)
	// inj stays attached after the latch: a call that reached the SIMD
	// path would panic or record a guard intervention.
	inj faults.Injector
}

// TestQuarantineRoutesShareOneLatch: every route that terminally demotes a
// (kernel, ISA) pair — MaxPanics panics, a corruption scoreboard trip, a
// quarantine journal replay, a GiveUpAfter latch — ends in the same place:
// the pair's breaker stuck-open with the route's reason, one entry in
// BreakerSet.Quarantines, one firing of the set's hook (the memo loses the
// pair's entries once), the next call served on the scalar path, and a
// degraded /livez listing the pair. Whether the scalar call also runs
// serially is decided on the reason alone (panic); internal/cv's
// TestQuarantineReasonRoutes pins that routing.
func TestQuarantineRoutesShareOneLatch(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "quarantine.journal")
	clk := &testClock{t: time.Unix(0, 0)}
	panics := func(t *testing.T, s *Server, base string) {
		s.SetFaultInjector(panicInjector{})
		for i := 0; i < 3; i++ { // the default MaxPanics
			if code, _ := get(t, fmt.Sprintf("%s&seed=%d", base, 100+i)); code != http.StatusInternalServerError {
				t.Fatalf("poisoned request %d: status %d, want 500", i, code)
			}
		}
	}
	routes := []quarantineRoute{
		{name: "panic", why: resilience.ReasonPanic, latch: panics, inj: panicInjector{}},
		{
			name: "corruption", why: resilience.ReasonCorruption, inj: saboteur{},
			// The breaker never opens on its own, so the latch is the
			// scoreboard's alone.
			cfg: Config{AuditRate: 1, Breaker: resilience.BreakerConfig{Window: 256, MinSamples: 256, FailureRate: 1}},
			latch: func(t *testing.T, s *Server, base string) {
				s.SetFaultInjector(saboteur{})
				// The scoreboard's default MinSamples is 8 audits.
				for i := 0; i < 8 && s.Breakers().State("GaussianBlur", "neon") != resilience.StateStuckOpen; i++ {
					if code, body := get(t, fmt.Sprintf("%s&seed=%d", base, 100+i)); code != http.StatusOK {
						t.Fatalf("corrupted request %d = %d %v", i, code, body)
					}
				}
			},
		},
		{
			name: "journal", why: resilience.ReasonPanic, inj: panicInjector{},
			latch: func(t *testing.T, s *Server, base string) {
				// An earlier process quarantined the pair and journaled it.
				prev := NewServer(Config{QuarantineJournal: journal})
				defer prev.Close()
				ts := httptest.NewServer(prev.Handler())
				defer ts.Close()
				panics(t, prev, ts.URL+"/process?kernel=gaussian&isa=neon&width=64&height=48")
				s.SetFaultInjector(nil)
				// The replay NewServer runs at startup, here on a server whose
				// memo is warm so the hook's invalidation shows.
				s.openQuarantineJournal(journal)
			},
		},
		{
			name: "give-up", why: resilience.ReasonGiveUp, inj: saboteur{},
			cfg: Config{Breaker: resilience.BreakerConfig{
				GiveUpAfter: 1, MinSamples: 1, OpenFor: time.Second, Clock: clk.Now,
			}},
			latch: func(t *testing.T, s *Server, base string) {
				s.SetFaultInjector(saboteur{})
				get(t, base+"&seed=100") // a fallback opens the breaker
				clk.Advance(2 * time.Second)
				get(t, base+"&seed=101") // the failed half-open probe gives up
			},
		},
	}
	for _, r := range routes {
		t.Run(r.name, func(t *testing.T) { testQuarantineRoute(t, r) })
	}
}

func testQuarantineRoute(t *testing.T, r quarantineRoute) {
	cfg := r.cfg
	cfg.FaultISA = "neon"
	cfg.Memo = memo.Config{MaxBytes: 16 << 20}
	s := NewServer(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	base := ts.URL + "/process?kernel=gaussian&isa=neon&width=64&height=48"
	warm := base + "&seed=1"

	// A clean pair with one cached result.
	if outcome, _ := getMemo(t, warm); outcome != "miss" {
		t.Fatalf("warm-up = %q, want miss", outcome)
	}
	_, want := getMemo(t, warm)
	if want["memo"] != "hit" {
		t.Fatalf("warm-up repeat = %v, want hit", want["memo"])
	}

	r.latch(t, s, base)

	brk := s.Breakers()
	if st := brk.State("GaussianBlur", "neon"); st != resilience.StateStuckOpen {
		t.Fatalf("breaker = %v, want stuck-open", st)
	}
	qs := brk.Quarantines()
	if len(qs) != 1 || qs[0].Kernel != "GaussianBlur" || qs[0].ISA != "neon" || qs[0].Reason != r.why {
		t.Fatalf("Quarantines = %+v, want one GaussianBlur/neon entry for %q", qs, r.why)
	}
	if _, why := brk.Admit("GaussianBlur", "neon", false); why != r.why {
		t.Fatalf("Admit reason = %q, want %q", why, r.why)
	}

	// One latch, so one firing of the hook: it dropped every cached result
	// of the pair.
	latches := 0.0
	for series, n := range s.reg.Snapshot() {
		if strings.HasPrefix(series, "breaker_transitions_total{") && strings.Contains(series, `to="stuck-open"`) {
			latches += n
		}
	}
	if latches != 1 {
		t.Fatalf("stuck-open transitions = %v, want 1", latches)
	}
	if e := s.Memo().Kernels()["GaussianBlur/neon"]; e.Entries != 0 {
		t.Fatalf("memo still holds %d GaussianBlur/neon entries after the latch", e.Entries)
	}
	invalidated := s.Memo().Stats().Invalidations
	if invalidated == 0 {
		t.Fatal("the latch invalidated no memo entry")
	}

	// The next call recomputes on the scalar path: the injector is still
	// attached, and a SIMD run would panic or record a guard intervention.
	s.SetFaultInjector(r.inj)
	outcome, body := getMemo(t, warm)
	if outcome != "miss" {
		t.Fatalf("post-latch request = %q, want miss (entry invalidated)", outcome)
	}
	if body["faults"] != float64(0) || body["checksum"] != want["checksum"] || body["breaker"] != "stuck-open" {
		t.Fatalf("post-latch request = %v, want 0 faults, checksum %v, stuck-open", body, want["checksum"])
	}
	// The hook fired once: the recomputed entry stays cached.
	if outcome, _ := getMemo(t, warm); outcome != "hit" {
		t.Fatalf("repeat = %q, want hit", outcome)
	}
	if st := s.Memo().Stats(); st.Invalidations != invalidated {
		t.Fatalf("memo invalidations = %d after the latch settled, want %d", st.Invalidations, invalidated)
	}

	code, live := get(t, ts.URL+"/livez")
	if code != http.StatusOK || live["status"] != "degraded" {
		t.Fatalf("/livez = %d %v, want 200 degraded", code, live)
	}
	lq, _ := live["quarantined"].([]any)
	if len(lq) != 1 {
		t.Fatalf("/livez quarantined = %v, want one entry", live["quarantined"])
	}
	if e := lq[0].(map[string]any); e["kernel"] != "GaussianBlur" || e["isa"] != "neon" ||
		e["reason"] != string(r.why) || e["unix_nano"] == nil {
		t.Fatalf("/livez entry = %v", e)
	}
}

// TestGiveUpLatchInvalidatesMemo: a breaker that latches stuck-open through
// GiveUpAfter fires the same hook as any quarantine, so the pair's cached
// results are dropped and the next identical request is a miss.
func TestGiveUpLatchInvalidatesMemo(t *testing.T) {
	clk := &testClock{t: time.Unix(0, 0)}
	s := NewServer(Config{
		FaultISA: "neon",
		Breaker:  resilience.BreakerConfig{GiveUpAfter: 1, MinSamples: 1, OpenFor: time.Second, Clock: clk.Now},
		Memo:     memo.Config{MaxBytes: 16 << 20},
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	base := ts.URL + "/process?kernel=gaussian&isa=neon&width=64&height=48"

	getMemo(t, base+"&seed=1")
	if outcome, _ := getMemo(t, base+"&seed=1"); outcome != "hit" {
		t.Fatalf("warm-up repeat = %q, want hit", outcome)
	}
	s.SetFaultInjector(saboteur{})
	getMemo(t, base+"&seed=2") // a fallback opens the breaker
	clk.Advance(2 * time.Second)
	getMemo(t, base+"&seed=3") // the failed half-open probe gives up
	if st := s.Breakers().State("GaussianBlur", "neon"); st != resilience.StateStuckOpen {
		t.Fatalf("breaker = %v, want stuck-open", st)
	}

	_, view := getMemo(t, ts.URL+"/memo")
	if kv, _ := view["kernels"].(map[string]any); kv["GaussianBlur/neon"] != nil {
		t.Fatalf("/memo still holds GaussianBlur/neon entries after give-up: %v", kv["GaussianBlur/neon"])
	}
	if outcome, _ := getMemo(t, base+"&seed=1"); outcome != "miss" {
		t.Fatalf("request after give-up = %q, want miss", outcome)
	}
}

// TestScalarRequestCreatesNoBreaker: scalar dispatch never consults a
// breaker, and reporting the response's breaker state must not create
// one — a scalar pair has no SIMD path to demote.
func TestScalarRequestCreatesNoBreaker(t *testing.T) {
	s := NewServer(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts.URL+"/process?kernel=gaussian&isa=scalar&width=64&height=48")
	if code != http.StatusOK || body["breaker"] != "closed" {
		t.Fatalf("scalar request = %d %v, want 200 with breaker closed", code, body)
	}
	if snap := s.Breakers().Snapshot(); len(snap) != 0 {
		t.Fatalf("breaker snapshot after a scalar request = %v, want empty", snap)
	}
}
