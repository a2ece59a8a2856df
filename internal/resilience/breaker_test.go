package resilience

import (
	"sync"
	"testing"
	"time"

	"simdstudy/internal/obs"
)

// manualClock is a settable time source shared by breaker tests.
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func newManualClock() *manualClock {
	return &manualClock{t: time.Unix(1000, 0)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// step is one scripted interaction with the breaker under test.
type step struct {
	record  *bool         // non-nil: Record(*record)
	allow   *bool         // non-nil: Allow() must return *allow
	advance time.Duration // non-zero: advance the clock first
	want    State         // state after the step
}

func rec(ok bool, want State) step       { return step{record: &ok, want: want} }
func allow(want bool, s State) step      { b := want; return step{allow: &b, want: s} }
func tick(d time.Duration, s State) step { return step{advance: d, want: s} }

// TestBreakerTransitions drives the state machine through its scripted
// transitions: trip on failure rate, cooldown to half-open, probe success
// and failure, and the stuck-open latch.
func TestBreakerTransitions(t *testing.T) {
	base := BreakerConfig{
		Window: 8, MinSamples: 4, FailureRate: 0.5,
		OpenFor: time.Second,
	}
	cases := []struct {
		name  string
		cfg   BreakerConfig
		steps []step
	}{
		{
			name: "stays closed below failure rate",
			cfg:  base,
			steps: []step{
				rec(true, StateClosed), rec(true, StateClosed), rec(true, StateClosed),
				rec(false, StateClosed), rec(true, StateClosed), rec(false, StateClosed),
				allow(true, StateClosed),
			},
		},
		{
			name: "trips at failure rate once MinSamples seen",
			cfg:  base,
			steps: []step{
				rec(false, StateClosed), // 1 sample: below MinSamples
				rec(false, StateClosed),
				rec(false, StateClosed),
				rec(false, StateOpen), // 4/4 failures
				allow(false, StateOpen),
			},
		},
		{
			name: "cooldown promotes to half-open and a clean probe closes",
			cfg:  base,
			steps: []step{
				rec(false, StateClosed), rec(false, StateClosed),
				rec(false, StateClosed), rec(false, StateOpen),
				allow(false, StateOpen),
				tick(time.Second, StateHalfOpen),
				allow(true, StateHalfOpen),  // the probe
				allow(false, StateHalfOpen), // one probe at a time
				rec(true, StateClosed),
				allow(true, StateClosed),
			},
		},
		{
			name: "failed probe re-opens and a later probe still closes",
			cfg:  base,
			steps: []step{
				rec(false, StateClosed), rec(false, StateClosed),
				rec(false, StateClosed), rec(false, StateOpen),
				tick(time.Second, StateHalfOpen),
				allow(true, StateHalfOpen),
				rec(false, StateOpen), // probe diverged
				allow(false, StateOpen),
				tick(time.Second, StateHalfOpen),
				allow(true, StateHalfOpen),
				rec(true, StateClosed),
			},
		},
		{
			name: "stuck-open after the re-arm budget",
			cfg: func() BreakerConfig {
				c := base
				c.GiveUpAfter = 1
				return c
			}(),
			steps: []step{
				rec(false, StateClosed), rec(false, StateClosed),
				rec(false, StateClosed), rec(false, StateOpen), // open #1: tolerated
				tick(time.Second, StateHalfOpen),
				allow(true, StateHalfOpen),
				rec(false, StateStuckOpen), // open #2: latched
				tick(time.Hour, StateStuckOpen),
				allow(false, StateStuckOpen),
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := newManualClock()
			cfg := tc.cfg
			cfg.Clock = clk.Now
			b := NewBreaker("GaussianBlur", "neon", cfg, nil)
			for i, s := range tc.steps {
				if s.advance > 0 {
					clk.Advance(s.advance)
				}
				switch {
				case s.record != nil:
					b.record(*s.record)
				case s.allow != nil:
					if got, _ := b.admit(true); got != *s.allow {
						t.Fatalf("step %d: Allow() = %v, want %v", i, got, *s.allow)
					}
				}
				if got := b.State(); got != s.want {
					t.Fatalf("step %d: state = %v, want %v", i, got, s.want)
				}
			}
		})
	}
}

// TestBreakerClosingClearsWindow: after a close, the pre-trip failures must
// not count against the fresh window.
func TestBreakerClosingClearsWindow(t *testing.T) {
	clk := newManualClock()
	b := NewBreaker("k", "i", BreakerConfig{
		Window: 8, MinSamples: 2, FailureRate: 0.5, OpenFor: time.Second, Clock: clk.Now,
	}, nil)
	b.record(false)
	b.record(false)
	if b.State() != StateOpen {
		t.Fatal("breaker should have tripped")
	}
	clk.Advance(time.Second)
	if ok, _ := b.admit(true); !ok {
		t.Fatal("probe denied")
	}
	b.record(true)
	if b.State() != StateClosed {
		t.Fatal("clean probe should close")
	}
	// One failure in a fresh window: 1/1 = 100% but below MinSamples... so
	// add one success first; 1 failure / 2 samples = 50% would re-trip.
	// The point: the two pre-trip failures must be gone, so one success +
	// one failure is exactly at the rate and trips — but three successes
	// then one failure (1/4 = 25%) must not.
	b.record(true)
	b.record(true)
	b.record(true)
	b.record(false)
	if got := b.State(); got != StateClosed {
		t.Fatalf("stale failures leaked into the new window: %v", got)
	}
}

// TestBreakerMetrics: transitions must surface in the registry counters,
// the state gauge, and an outage span.
func TestBreakerMetrics(t *testing.T) {
	clk := newManualClock()
	reg := obs.NewRegistry()
	b := NewBreaker("GaussianBlur", "neon", BreakerConfig{
		Window: 4, MinSamples: 2, FailureRate: 0.5, OpenFor: time.Second, Clock: clk.Now,
	}, reg)
	b.record(false)
	b.record(false)
	clk.Advance(time.Second)
	if ok, _ := b.admit(true); !ok {
		t.Fatal("probe denied")
	}
	b.record(true)

	snap := reg.Snapshot()
	for _, series := range []string{
		`breaker_transitions_total{from="closed",isa="neon",kernel="GaussianBlur",to="open"}`,
		`breaker_transitions_total{from="open",isa="neon",kernel="GaussianBlur",to="half-open"}`,
		`breaker_transitions_total{from="half-open",isa="neon",kernel="GaussianBlur",to="closed"}`,
	} {
		if snap[series] != 1 {
			t.Errorf("%s = %v, want 1\nsnapshot: %v", series, snap[series], snap)
		}
	}
	if g := snap[`breaker_state{isa="neon",kernel="GaussianBlur"}`]; g != float64(StateClosed) {
		t.Errorf("breaker_state gauge = %v, want %v", g, float64(StateClosed))
	}
	var outage bool
	for _, sp := range reg.Spans() {
		if sp.Name == "breaker.open" {
			outage = true
			if res := sp.Attrs["resolution"]; res != "closed" {
				t.Errorf("outage span resolution = %v, want closed", res)
			}
		}
	}
	if !outage {
		t.Error("no breaker.open span recorded")
	}
}

// TestBreakerSetConcurrent hammers one set from many goroutines under
// -race: Allow/Record/State/Snapshot must be data-race free and the
// breaker must end in a legal state.
func TestBreakerSetConcurrent(t *testing.T) {
	clk := newManualClock()
	s := NewBreakerSet(BreakerConfig{
		Window: 16, MinSamples: 4, FailureRate: 0.5,
		OpenFor: time.Millisecond, Clock: clk.Now,
	}, obs.NewRegistry())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			kernel := "GaussianBlur"
			if g%2 == 1 {
				kernel = "Threshold"
			}
			for i := 0; i < 500; i++ {
				if ok, _ := s.Admit(kernel, "neon", true); ok {
					s.Record(kernel, "neon", i%3 != 0)
				}
				if i%50 == 0 {
					clk.Advance(time.Millisecond)
					s.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	for k, st := range s.Snapshot() {
		if st < StateClosed || st > StateStuckOpen {
			t.Errorf("%s: illegal state %d", k, st)
		}
	}
	if snap := s.Snapshot(); len(snap) != 2 {
		t.Errorf("Snapshot() = %v, want 2 entries", snap)
	}
}
