package integrity

import (
	"math"
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
	stamp := s.Stamp(m)
	m.U8Pix[500] ^= 0x80 // corruption at rest
	if s.Check(m, stamp) {
		t.Fatal("parked corruption not detected")
	}
	// A clean park/reuse cycle passes.
	stamp = s.Stamp(m)
	if !s.Check(m, stamp) {
		t.Fatal("clean plane rejected")
	}
	// A Mat parked with no stamp passes unverified.
	if !s.Check(image.NewMat(8, 8, image.U8), nil) {
		t.Fatal("unstamped plane rejected")
	}
}

// TestBlockSumsMatchSerial holds the four-block interleaved hashing to the
// one-block-at-a-time reference: for every kind and block counts 1-9
// (counts not divisible by four, a final block short by one element or
// holding just one, and both together),
// SumMat must equal matBlockSum per block, and a bit flipped in each
// interleave position must be reported in exactly that block.
func TestBlockSumsMatchSerial(t *testing.T) {
	const width, blockRows = 5, 2
	const block = width * blockRows
	for _, kind := range []image.Type{image.U8, image.S16, image.F32} {
		for blocks := 1; blocks <= 9; blocks++ {
			for _, short := range []int{0, 1, block - 1} {
				n := blocks * block
				if short > 0 {
					n = (blocks-1)*block + short // final block holds short elements
				}
				m := &image.Mat{Kind: kind, Width: width, Height: n / width}
				switch kind {
				case image.U8:
					m.U8Pix = make([]uint8, n)
					for i := range m.U8Pix {
						m.U8Pix[i] = uint8(i*37 + 11)
					}
				case image.S16:
					m.S16Pix = make([]int16, n)
					for i := range m.S16Pix {
						m.S16Pix[i] = int16(i*7919 - 3000)
					}
				case image.F32:
					m.F32Pix = make([]float32, n)
					for i := range m.F32Pix {
						m.F32Pix[i] = float32(i)*1.5 - 7
					}
				}
				ps := SumMat(m, blockRows)
				if ps.Block != block || ps.Total != n || len(ps.Sums) != blocks {
					t.Fatalf("%v blocks=%d n=%d: geometry %d/%d/%d", kind, blocks, n, ps.Block, ps.Total, len(ps.Sums))
				}
				for i, got := range ps.Sums {
					lo := i * block
					if want := matBlockSum(m, lo, min(lo+block, n)); got != want {
						t.Fatalf("%v blocks=%d n=%d: block %d sum %#x, serial %#x", kind, blocks, n, i, got, want)
					}
				}
				if err := ps.VerifyMat(m); err != nil {
					t.Fatalf("%v blocks=%d n=%d: clean verify: %v", kind, blocks, n, err)
				}
				for i := 0; i < blocks; i++ {
					e := min(i*block+block/2, n-1) // inside block i, the short one too
					flip(m, e)
					err := ps.VerifyMat(m)
					flip(m, e)
					ce, ok := err.(*ChecksumError)
					if !ok {
						t.Fatalf("%v blocks=%d n=%d: flip in block %d: got %v", kind, blocks, n, i, err)
					}
					if lo, hi := i*block, min(i*block+block, n); ce.Block != i || ce.Lo != lo || ce.Hi != hi {
						t.Fatalf("%v blocks=%d n=%d: flip in block %d reported block %d [%d,%d), want [%d,%d)",
							kind, blocks, n, i, ce.Block, ce.Lo, ce.Hi, lo, hi)
					}
				}
			}
		}
	}
}

// flip toggles the low bit of element i of m's active plane.
func flip(m *image.Mat, i int) {
	switch m.Kind {
	case image.U8:
		m.U8Pix[i] ^= 1
	case image.S16:
		m.S16Pix[i] ^= 1
	case image.F32:
		m.F32Pix[i] = math.Float32frombits(math.Float32bits(m.F32Pix[i]) ^ 1)
	}
}
