package simdstudy

import (
	"testing"
	"testing/quick"

	"simdstudy/internal/vec"
)

// Cross-ISA equivalence: where NEON and SSE2 define the same lane
// operation, the two emulation layers must agree bit-for-bit. These
// properties catch semantic drift in either layer against the other.

func TestQuickCrossISAByteOps(t *testing.T) {
	n := NewNEON(nil)
	s := NewSSE2(nil)
	f := func(ab, bb [16]byte) bool {
		a, b := vec.FromU8x16(ab), vec.FromU8x16(bb)
		if n.VminqU8(a, b) != s.MinEpu8(a, b) {
			return false
		}
		if n.VmaxqU8(a, b) != s.MaxEpu8(a, b) {
			return false
		}
		if n.VqaddqU8(a, b) != s.AddsEpu8(a, b) {
			return false
		}
		if n.VqsubqU8(a, b) != s.SubsEpu8(a, b) {
			return false
		}
		if n.VaddqU8(a, b) != s.AddEpi8(a, b) {
			return false
		}
		// Rounded average: vrhadd == pavgb.
		if n.VrhaddqU8(a, b) != s.AvgEpu8(a, b) {
			return false
		}
		if n.VceqqU8(a, b) != s.CmpeqEpi8(a, b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCrossISAWordOps(t *testing.T) {
	n := NewNEON(nil)
	s := NewSSE2(nil)
	f := func(ar, br [8]int16) bool {
		a, b := vec.FromI16x8(ar), vec.FromI16x8(br)
		if n.VaddqS16(a, b) != s.AddEpi16(a, b) {
			return false
		}
		if n.VsubqS16(a, b) != s.SubEpi16(a, b) {
			return false
		}
		if n.VqaddqS16(a, b) != s.AddsEpi16(a, b) {
			return false
		}
		if n.VqsubqS16(a, b) != s.SubsEpi16(a, b) {
			return false
		}
		if n.VmulqS16(a, b) != s.MulloEpi16(a, b) {
			return false
		}
		if n.VminqS16(a, b) != s.MinEpi16(a, b) {
			return false
		}
		if n.VmaxqS16(a, b) != s.MaxEpi16(a, b) {
			return false
		}
		if n.VcgtqS16(a, b) != s.CmpgtEpi16(a, b) {
			return false
		}
		if n.VceqqS16(a, b) != s.CmpeqEpi16(a, b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCrossISABitwise(t *testing.T) {
	n := NewNEON(nil)
	s := NewSSE2(nil)
	f := func(ab, bb [16]byte) bool {
		a, b := vec.FromU8x16(ab), vec.FromU8x16(bb)
		if n.VandqU8(a, b) != s.AndSi128(a, b) {
			return false
		}
		if n.VorrqU8(a, b) != s.OrSi128(a, b) {
			return false
		}
		if n.VeorqU8(a, b) != s.XorSi128(a, b) {
			return false
		}
		// vbic a,b == pandn with swapped operands: a & ^b.
		if n.VbicqU8(a, b) != s.AndnotSi128(b, a) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCrossISAFloatOps(t *testing.T) {
	n := NewNEON(nil)
	s := NewSSE2(nil)
	f := func(ar, br [4]float32) bool {
		a, b := vec.FromF32x4(ar), vec.FromF32x4(br)
		if n.VaddqF32(a, b) != s.AddPs(a, b) {
			return false
		}
		if n.VsubqF32(a, b) != s.SubPs(a, b) {
			return false
		}
		if n.VmulqF32(a, b) != s.MulPs(a, b) {
			return false
		}
		if n.VcgtqF32(a, b) != s.CmpgtPs(a, b) {
			return false
		}
		if n.VceqqF32(a, b) != s.CmpeqPs(a, b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The narrowing packs: two vqmovn + vcombine must equal one packssdw —
// the exact instruction-count asymmetry the paper's convert listings show.
func TestQuickCrossISAPackEquivalence(t *testing.T) {
	n := NewNEON(nil)
	s := NewSSE2(nil)
	f := func(ar, br [4]int32) bool {
		a, b := vec.FromI32x4(ar), vec.FromI32x4(br)
		neonPacked := n.VcombineS16(n.VqmovnS32(a), n.VqmovnS32(b))
		ssePacked := s.PacksEpi32(a, b)
		return neonPacked == ssePacked
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Widening multiply-accumulate: NEON's fused vmlal must equal SSE2's
// unpack+pmullw+paddw spelling.
func TestQuickCrossISAWideningMAC(t *testing.T) {
	n := NewNEON(nil)
	s := NewSSE2(nil)
	f := func(accRaw [8]uint16, aRaw, bRaw [8]uint8) bool {
		acc := vec.FromU16x8(accRaw)
		da := vec.FromU8x8(aRaw)
		db := vec.FromU8x8(bRaw)
		neonOut := n.VmlalU8(acc, da, db)

		zero := s.SetzeroSi128()
		wa := s.UnpackloEpi8(vec.Combine(da, vec.V64{}), zero)
		wb := s.UnpackloEpi8(vec.Combine(db, vec.V64{}), zero)
		sseOut := s.AddEpi16(acc, s.MulloEpi16(wa, wb))
		return neonOut == sseOut
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
