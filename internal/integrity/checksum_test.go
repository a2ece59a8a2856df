package integrity

import (
	"testing"

	"simdstudy/internal/image"
)

func TestSumMatAllKinds(t *testing.T) {
	for _, kind := range []image.Type{image.U8, image.S16, image.F32} {
		m := image.NewMat(64, 48, kind)
		switch kind {
		case image.U8:
			for i := range m.U8Pix {
				m.U8Pix[i] = byte(i)
			}
		case image.S16:
			for i := range m.S16Pix {
				m.S16Pix[i] = int16(i * 31)
			}
		case image.F32:
			for i := range m.F32Pix {
				m.F32Pix[i] = float32(i) * 0.25
			}
		}
		ps := SumMat(m, 16)
		if err := ps.VerifyMat(m); err != nil {
			t.Fatalf("kind %v: clean verify failed: %v", kind, err)
		}
		switch kind {
		case image.U8:
			m.U8Pix[100] ^= 1
		case image.S16:
			m.S16Pix[100] ^= 1
		case image.F32:
			m.F32Pix[100] += 1
		}
		err := ps.VerifyMat(m)
		if err == nil {
			t.Fatalf("kind %v: corruption not detected", kind)
		}
		ce, ok := err.(*ChecksumError)
		if !ok {
			t.Fatalf("kind %v: got %T", kind, err)
		}
		if 100 < ce.Lo || 100 >= ce.Hi {
			t.Fatalf("kind %v: element 100 localized to [%d,%d)", kind, ce.Lo, ce.Hi)
		}
	}
}

func TestPoolScrubberDetectsParkedCorruption(t *testing.T) {
	s := NewPoolScrubber(nil)
	m := image.NewMat(32, 32, image.U8)
	for i := range m.U8Pix {
		m.U8Pix[i] = byte(i)
	}
	s.Stamp(m)
	if parked(s) != 1 {
		t.Fatalf("parked = %d, want 1", parked(s))
	}
	m.U8Pix[500] ^= 0x80 // corruption at rest
	if s.Check(m) {
		t.Fatal("parked corruption not detected")
	}
	if parked(s) != 0 {
		t.Fatal("stamp not consumed")
	}
	// A clean park/reuse cycle passes.
	s.Stamp(m)
	if !s.Check(m) {
		t.Fatal("clean plane rejected")
	}
	// An unstamped Mat passes unverified.
	if !s.Check(image.NewMat(8, 8, image.U8)) {
		t.Fatal("unstamped plane rejected")
	}
}

func TestPoolScrubberBoundedEviction(t *testing.T) {
	s := NewPoolScrubber(nil)
	var mats []*image.Mat
	for i := 0; i < 100; i++ {
		m := image.NewMat(4, 4, image.U8)
		mats = append(mats, m)
		s.Stamp(m)
	}
	if got := parked(s); got != 64 {
		t.Fatalf("parked = %d, want capacity 64", got)
	}
	// The earliest stamps were evicted; their Mats pass unverified even if
	// corrupted — degraded to sampling, never a false alarm.
	mats[0].U8Pix[0] ^= 0xFF
	if !s.Check(mats[0]) {
		t.Fatal("evicted stamp still verified")
	}
}

// parked is how many stamped planes the scrubber currently tracks.
func parked(s *PoolScrubber) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sums)
}
