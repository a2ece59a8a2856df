package faults

import (
	"testing"

	"simdstudy/internal/vec"
)

// TestDeterminism: identical call sequences with the same seed inject
// identical faults.
func TestDeterminism(t *testing.T) {
	run := func() ([]Event, uint64) {
		p := NewPlan(Config{Rate: 0.05, Seed: 42})
		v := vec.FromI16x8([8]int16{1, 2, 3, 4, 5, 6, 7, 8})
		for i := 0; i < 2000; i++ {
			v = p.V128(SiteALU, v)
			p.V64(SiteLoad, v.Low())
			p.Skew(SiteStore, 3)
		}
		st := p.Snapshot()
		return st.Events, st.Injected
	}
	e1, n1 := run()
	e2, n2 := run()
	if n1 == 0 {
		t.Fatal("expected some faults at rate 0.05 over 6000 opportunities")
	}
	if n1 != n2 || len(e1) != len(e2) {
		t.Fatalf("runs differ: %d vs %d faults", n1, n2)
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, e1[i], e2[i])
		}
	}
}

// TestRateZeroInjectsNothing: a zero-rate plan never corrupts values.
func TestRateZeroInjectsNothing(t *testing.T) {
	p := NewPlan(Config{Rate: 0, Seed: 7})
	v := vec.FromU32x4([4]uint32{0xDEADBEEF, 1, 2, 3})
	for i := 0; i < 1000; i++ {
		if got := p.V128(SiteLoad, v); got != v {
			t.Fatalf("value corrupted at rate 0: %v", got)
		}
		if off := p.Skew(SiteLoad, 8); off != 0 {
			t.Fatalf("skew fired at rate 0: %d", off)
		}
	}
	if p.Injected() != 0 {
		t.Fatalf("injected %d faults at rate 0", p.Injected())
	}
	if p.Calls() == 0 {
		t.Fatal("opportunities should still be counted")
	}
}

// TestSiteFilter: faults restricted to one site never fire elsewhere.
func TestSiteFilter(t *testing.T) {
	p := NewPlan(Config{Rate: 1, Seed: 9, Sites: []Site{SiteConvert}, Kinds: []Kind{KindBitFlip}})
	v := vec.Zero()
	for i := 0; i < 100; i++ {
		if got := p.V128(SiteLoad, v); got != v {
			t.Fatal("load-site fault fired with only convert enabled")
		}
	}
	if got := p.V128(SiteConvert, v); got == v {
		t.Fatal("convert-site fault did not fire at rate 1")
	}
	st := p.Snapshot()
	if st.BySite[SiteLoad] != 0 || st.BySite[SiteConvert] == 0 {
		t.Fatalf("site counters wrong: %+v", st.BySite)
	}
}

// TestKinds: each kind produces its documented corruption shape.
func TestKinds(t *testing.T) {
	t.Run("bitflip", func(t *testing.T) {
		p := NewPlan(Config{Rate: 1, Seed: 3, Kinds: []Kind{KindBitFlip}})
		v := vec.Zero()
		got := p.V128(SiteALU, v)
		diff := 0
		for i := 0; i < 16; i++ {
			for b := 0; b < 8; b++ {
				if (got.U8(i)^v.U8(i))&(1<<b) != 0 {
					diff++
				}
			}
		}
		if diff != 1 {
			t.Fatalf("bitflip changed %d bits, want 1", diff)
		}
	})
	t.Run("satboundary", func(t *testing.T) {
		p := NewPlan(Config{Rate: 1, Seed: 3, Kinds: []Kind{KindSatBoundary}})
		got := p.V128(SiteConvert, vec.Zero())
		found := false
		for i := 0; i < 8; i++ {
			if got.I16(i) == 0x7FFF {
				found = true
			}
		}
		if !found {
			t.Fatalf("no lane stuck at 0x7FFF: %v", got)
		}
	})
	t.Run("nan", func(t *testing.T) {
		p := NewPlan(Config{Rate: 1, Seed: 3, Kinds: []Kind{KindNaN}})
		got := p.V128(SiteLoad, vec.Zero())
		found := false
		for i := 0; i < 4; i++ {
			f := got.F32(i)
			if f != f {
				found = true
			}
		}
		if !found {
			t.Fatalf("no NaN lane: %v", got)
		}
	})
	t.Run("indexskew", func(t *testing.T) {
		p := NewPlan(Config{Rate: 1, Seed: 3, Kinds: []Kind{KindIndexSkew}})
		if off := p.Skew(SiteLoad, 4); off != 1 {
			t.Fatalf("skew = %d, want 1", off)
		}
		// No slack: must not fire even at rate 1.
		if off := p.Skew(SiteLoad, 0); off != 0 {
			t.Fatal("skew fired with zero slack")
		}
	})
}

// TestReset rewinds the stream so the same workload replays the same faults.
func TestReset(t *testing.T) {
	p := NewPlan(Config{Rate: 0.1, Seed: 11})
	v := vec.Ones()
	for i := 0; i < 500; i++ {
		p.V128(SiteStore, v)
	}
	first := p.Snapshot()
	p.Reset()
	if p.Injected() != 0 {
		t.Fatal("reset did not clear counters")
	}
	for i := 0; i < 500; i++ {
		p.V128(SiteStore, v)
	}
	second := p.Snapshot()
	if first.Injected != second.Injected {
		t.Fatalf("replay differs: %d vs %d", first.Injected, second.Injected)
	}
}
