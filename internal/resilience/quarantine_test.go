package resilience

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"simdstudy/internal/obs"
)

// TestForceStuckOpen: Quarantine latches a pair terminally from any state,
// and no cooldown or verdict re-arms it.
func TestForceStuckOpen(t *testing.T) {
	now := time.Unix(0, 0)
	cfg := BreakerConfig{OpenFor: time.Second, Clock: func() time.Time { return now }}

	t.Run("from closed", func(t *testing.T) {
		s := NewBreakerSet(cfg, nil)
		s.Quarantine("k", "neon", ReasonPanic)
		if st := s.State("k", "neon"); st != StateStuckOpen {
			t.Fatalf("state = %v", st)
		}
		if ok, _ := s.Admit("k", "neon", true); ok {
			t.Fatal("stuck-open breaker allowed a call")
		}
		// Neither cooldown nor a success verdict re-arms it.
		now = now.Add(time.Hour)
		s.Record("k", "neon", true)
		if st := s.State("k", "neon"); st != StateStuckOpen {
			t.Fatalf("state after cooldown+success = %v", st)
		}
	})

	t.Run("from half-open with probe out", func(t *testing.T) {
		s := NewBreakerSet(BreakerConfig{
			MinSamples: 1, FailureRate: 1, OpenFor: time.Second,
			Clock: func() time.Time { return now },
		}, nil)
		s.Record("k", "neon", false)
		now = now.Add(2 * time.Second)
		if ok, _ := s.Admit("k", "neon", true); !ok {
			t.Fatal("half-open breaker refused the probe")
		}
		s.Quarantine("k", "neon", ReasonCorruption)
		if st := s.State("k", "neon"); st != StateStuckOpen {
			t.Fatalf("state = %v", st)
		}
		// The outstanding probe's late verdict is ignored.
		s.Record("k", "neon", true)
		if st := s.State("k", "neon"); st != StateStuckOpen {
			t.Fatalf("state after late probe verdict = %v", st)
		}
	})

	t.Run("set-level", func(t *testing.T) {
		s := NewBreakerSet(BreakerConfig{}, nil)
		s.Quarantine("GaussianBlur", "neon", ReasonPanic)
		if st := s.State("GaussianBlur", "neon"); st != StateStuckOpen {
			t.Fatalf("state = %v", st)
		}
		if st := s.State("GaussianBlur", "sse2"); st != StateClosed {
			t.Fatalf("sibling pair state = %v", st)
		}
	})
}

// TestQuarantineReasons: every route to stuck-open — Quarantine for panic or
// corruption, the GiveUpAfter latch — lands in the one view with its
// reason and latch time, and fires the one hook exactly once per pair.
func TestQuarantineReasons(t *testing.T) {
	now := time.Unix(50, 0)
	s := NewBreakerSet(BreakerConfig{
		MinSamples: 1, FailureRate: 1, OpenFor: time.Second, GiveUpAfter: 1,
		Clock: func() time.Time { return now },
	}, nil)
	var fired []string
	s.OnQuarantine(func(kernel, isa string) { fired = append(fired, kernel+"/"+isa) })

	s.Quarantine("Threshold", "neon", ReasonCorruption)
	s.Quarantine("Threshold", "neon", ReasonPanic) // already latched: keeps corruption
	s.Quarantine("Canny", "sse2", ReasonPanic)
	// GiveUpAfter 1: open, fail the half-open probe, and the next trip latches.
	s.Record("SobelFilter", "neon", false)
	now = now.Add(2 * time.Second)
	if ok, _ := s.Admit("SobelFilter", "neon", true); !ok {
		t.Fatal("half-open breaker refused the probe")
	}
	if st := s.Record("SobelFilter", "neon", false); st != StateStuckOpen {
		t.Fatalf("give-up state = %v", st)
	}
	s.Record("SobelFilter", "neon", false) // late verdict: no second latch

	want := []Quarantine{
		{Kernel: "Canny", ISA: "sse2", Reason: ReasonPanic, UnixNano: time.Unix(50, 0).UnixNano()},
		{Kernel: "SobelFilter", ISA: "neon", Reason: ReasonGiveUp, UnixNano: time.Unix(52, 0).UnixNano()},
		{Kernel: "Threshold", ISA: "neon", Reason: ReasonCorruption, UnixNano: time.Unix(50, 0).UnixNano()},
	}
	if got := s.Quarantines(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Quarantines = %+v\nwant %+v", got, want)
	}
	if want := []string{"Threshold/neon", "Canny/sse2", "SobelFilter/neon"}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("hook fired for %v, want %v", fired, want)
	}
	for _, q := range want {
		if ok, why := s.Admit(q.Kernel, q.ISA, false); ok || why != q.Reason {
			t.Errorf("Admit(%s/%s) = %v, %q; want false, %q", q.Kernel, q.ISA, ok, why, q.Reason)
		}
	}
}

// TestStateCreatesNoBreaker: asking an unseen pair's state or latch reads
// closed and allowed without creating a breaker, so views list only pairs
// that saw traffic.
func TestStateCreatesNoBreaker(t *testing.T) {
	s := NewBreakerSet(BreakerConfig{}, nil)
	if st := s.State("GaussianBlur", "scalar"); st != StateClosed {
		t.Fatalf("unseen pair state = %v", st)
	}
	if ok, why := s.Admit("GaussianBlur", "scalar", false); !ok || why != "" {
		t.Fatalf("unseen pair Admit = %v, %q", ok, why)
	}
	s.Release("GaussianBlur", "scalar")
	if snap := s.Snapshot(); len(snap) != 0 {
		t.Fatalf("Snapshot = %v, want empty", snap)
	}
	if qs := s.Quarantines(); len(qs) != 0 {
		t.Fatalf("Quarantines = %v, want empty", qs)
	}
}

// TestQuarantineFiresOnceConcurrently: with the give-up latch and
// Quarantine racing on the same pairs from many goroutines, the hook fires
// exactly once per pair and the view lists each pair once.
func TestQuarantineFiresOnceConcurrently(t *testing.T) {
	clk := newManualClock()
	s := NewBreakerSet(BreakerConfig{
		MinSamples: 1, FailureRate: 1, OpenFor: time.Millisecond, GiveUpAfter: 1, Clock: clk.Now,
	}, obs.NewRegistry())
	var mu sync.Mutex
	fired := map[string]int{}
	s.OnQuarantine(func(kernel, isa string) {
		mu.Lock()
		fired[kernel+"/"+isa]++
		mu.Unlock()
	})
	kernels := []string{"GaussianBlur", "Threshold"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			kernel := kernels[g%2]
			for i := 0; i < 200; i++ {
				if g < 4 {
					if ok, _ := s.Admit(kernel, "neon", true); ok {
						s.Record(kernel, "neon", false)
					}
					clk.Advance(time.Millisecond)
				} else if i == 100 {
					s.Quarantine(kernel, "neon", ReasonCorruption)
				}
				s.Quarantines()
			}
		}(g)
	}
	wg.Wait()
	if qs := s.Quarantines(); len(qs) != 2 {
		t.Fatalf("Quarantines = %+v, want both pairs", qs)
	}
	for _, k := range kernels {
		if n := fired[k+"/neon"]; n != 1 {
			t.Errorf("hook fired %d times for %s/neon, want 1", n, k)
		}
	}
}
