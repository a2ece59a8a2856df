package sse2

import (
	"math"

	"simdstudy/internal/faults"
	"simdstudy/internal/vec"
)

// roundToEvenSat converts with x86 round-to-even under the default MXCSR
// mode. Out-of-range values produce the x86 "integer indefinite"
// 0x80000000.
func roundToEvenSat(v float64) int32 {
	if math.IsNaN(v) || v >= math.MaxInt32 || v < math.MinInt32 {
		return math.MinInt32
	}
	return int32(math.RoundToEven(v))
}

// --- Conversions ---

// CvtpsEpi32 converts four floats to int32 with round-to-even
// (_mm_cvtps_epi32 / cvtps2dq). Out-of-range lanes produce the x86
// integer-indefinite 0x80000000. Core of the paper's SSE2 convert loop.
func (u *Unit) CvtpsEpi32(a vec.V128) vec.V128 {
	u.rec(opCvtps2dq)
	return fault(u, faults.SiteConvert, cvtpsEpi32(a))
}

// cvtpsEpi32 is cvtps2dq read and written a word at a time: each 64-bit
// word holds two float lanes, converted in place.
func cvtpsEpi32(a vec.V128) vec.V128 {
	return vec.V128{Lo: cvtps(a.Lo) | cvtps(a.Lo>>32)<<32, Hi: cvtps(a.Hi) | cvtps(a.Hi>>32)<<32}
}

// cvtps converts the float32 in the low 32 bits of x (cvtps2dq on one
// lane) and returns the int32's bits.
func cvtps(x uint64) uint64 {
	return uint64(uint32(roundToEvenSat(float64(math.Float32frombits(uint32(x))))))
}

// CvttpsEpi32 converts four floats to int32 truncating toward zero
// (_mm_cvttps_epi32 / cvttps2dq).
func (u *Unit) CvttpsEpi32(a vec.V128) vec.V128 {
	u.rec(opCvttps2dq)
	var r vec.V128
	for i := 0; i < 4; i++ {
		f := float64(a.F32(i))
		if math.IsNaN(f) || f >= math.MaxInt32 || f < math.MinInt32 {
			r.SetI32(i, math.MinInt32)
		} else {
			r.SetI32(i, int32(f))
		}
	}
	return fault(u, faults.SiteConvert, r)
}

// Cvtepi32Ps converts four int32 lanes to float (_mm_cvtepi32_ps).
func (u *Unit) Cvtepi32Ps(a vec.V128) vec.V128 {
	u.rec(opCvtdq2ps)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetF32(i, float32(a.I32(i)))
	}
	return fault(u, faults.SiteConvert, r)
}

// CvtpsPd converts the low two floats to doubles (_mm_cvtps_pd).
func (u *Unit) CvtpsPd(a vec.V128) vec.V128 {
	u.rec(opCvtps2pd)
	var r vec.V128
	r.SetF64(0, float64(a.F32(0)))
	r.SetF64(1, float64(a.F32(1)))
	return fault(u, faults.SiteConvert, r)
}

// CvtpdPs converts two doubles to floats in the low lanes (_mm_cvtpd_ps).
func (u *Unit) CvtpdPs(a vec.V128) vec.V128 {
	u.rec(opCvtpd2ps)
	var r vec.V128
	r.SetF32(0, float32(a.F64(0)))
	r.SetF32(1, float32(a.F64(1)))
	return fault(u, faults.SiteConvert, r)
}

// --- Packs ---

// PacksEpi32 packs two registers of int32 into one register of int16 with
// signed saturation (_mm_packs_epi32 / packssdw). The paper's SSE2 convert
// loop does its downcast with a single one of these, where NEON needs two
// vqmovn plus a vcombine.
func (u *Unit) PacksEpi32(a, b vec.V128) vec.V128 {
	u.rec(opPackssdw)
	return fault(u, faults.SiteConvert, packs32(a, b))
}

// packs32 is packssdw, out of line so the intrinsic calling it inlines.
func packs32(a, b vec.V128) vec.V128 { return vec.Combine(vec.SatI16I32(a), vec.SatI16I32(b)) }

// PacksEpi16 packs two registers of int16 into int8 with signed saturation
// (_mm_packs_epi16 / packsswb).
func (u *Unit) PacksEpi16(a, b vec.V128) vec.V128 {
	u.rec(opPacksswb)
	return fault(u, faults.SiteConvert, vec.Combine(vec.SatI8I16(a), vec.SatI8I16(b)))
}

// PackusEpi16 packs two registers of int16 into uint8 with unsigned
// saturation (_mm_packus_epi16 / packuswb).
func (u *Unit) PackusEpi16(a, b vec.V128) vec.V128 {
	u.rec(opPackuswb)
	return fault(u, faults.SiteConvert, packus(a, b))
}

// packus is packuswb. Packing a register with itself, the kernels' way to
// narrow one register to its low half, saturates it once.
func packus(a, b vec.V128) vec.V128 {
	lo := vec.SatU8I16(a)
	hi := lo
	if b != a {
		hi = vec.SatU8I16(b)
	}
	return vec.Combine(lo, hi)
}

// --- Unpacks ---

// UnpackloEpi8 interleaves the low eight bytes of a and b
// (_mm_unpacklo_epi8 / punpcklbw).
func (u *Unit) UnpackloEpi8(a, b vec.V128) vec.V128 {
	u.rec(opPunpcklbw)
	return fault(u, faults.SiteConvert, vec.InterleaveLoU8(a, b))
}

// UnpackhiEpi8 interleaves the high eight bytes (_mm_unpackhi_epi8).
func (u *Unit) UnpackhiEpi8(a, b vec.V128) vec.V128 {
	u.rec(opPunpckhbw)
	return fault(u, faults.SiteConvert, vec.InterleaveHiU8(a, b))
}

// UnpackloEpi16 interleaves the low four words (_mm_unpacklo_epi16).
func (u *Unit) UnpackloEpi16(a, b vec.V128) vec.V128 {
	u.rec(opPunpcklwd)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetU16(2*i, a.U16(i))
		r.SetU16(2*i+1, b.U16(i))
	}
	return fault(u, faults.SiteConvert, r)
}

// UnpackhiEpi16 interleaves the high four words (_mm_unpackhi_epi16).
func (u *Unit) UnpackhiEpi16(a, b vec.V128) vec.V128 {
	u.rec(opPunpckhwd)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetU16(2*i, a.U16(4+i))
		r.SetU16(2*i+1, b.U16(4+i))
	}
	return fault(u, faults.SiteConvert, r)
}

// UnpackloEpi32 interleaves the low two dwords (_mm_unpacklo_epi32).
func (u *Unit) UnpackloEpi32(a, b vec.V128) vec.V128 {
	u.rec(opPunpckldq)
	var r vec.V128
	r.SetU32(0, a.U32(0))
	r.SetU32(1, b.U32(0))
	r.SetU32(2, a.U32(1))
	r.SetU32(3, b.U32(1))
	return fault(u, faults.SiteConvert, r)
}

// UnpackhiEpi32 interleaves the high two dwords (_mm_unpackhi_epi32).
func (u *Unit) UnpackhiEpi32(a, b vec.V128) vec.V128 {
	u.rec(opPunpckhdq)
	var r vec.V128
	r.SetU32(0, a.U32(2))
	r.SetU32(1, b.U32(2))
	r.SetU32(2, a.U32(3))
	r.SetU32(3, b.U32(3))
	return fault(u, faults.SiteConvert, r)
}

// UnpackloEpi64 concatenates the low qwords (_mm_unpacklo_epi64).
func (u *Unit) UnpackloEpi64(a, b vec.V128) vec.V128 {
	u.rec(opPunpcklqdq)
	var r vec.V128
	r.SetU64(0, a.U64(0))
	r.SetU64(1, b.U64(0))
	return fault(u, faults.SiteConvert, r)
}

// UnpackhiEpi64 concatenates the high qwords (_mm_unpackhi_epi64).
func (u *Unit) UnpackhiEpi64(a, b vec.V128) vec.V128 {
	u.rec(opPunpckhqdq)
	var r vec.V128
	r.SetU64(0, a.U64(1))
	r.SetU64(1, b.U64(1))
	return fault(u, faults.SiteConvert, r)
}

// --- Shuffles ---

// ShuffleEpi32 rearranges dword lanes by a 2-bit-per-lane immediate
// (_mm_shuffle_epi32 / pshufd).
func (u *Unit) ShuffleEpi32(a vec.V128, imm uint8) vec.V128 {
	u.rec(opPshufd)
	var r vec.V128
	for i := 0; i < 4; i++ {
		sel := (imm >> (2 * i)) & 3
		r.SetU32(i, a.U32(int(sel)))
	}
	return fault(u, faults.SiteConvert, r)
}

// ShuffleloEpi16 rearranges the low four word lanes (_mm_shufflelo_epi16).
func (u *Unit) ShuffleloEpi16(a vec.V128, imm uint8) vec.V128 {
	u.rec(opPshuflw)
	r := a
	for i := 0; i < 4; i++ {
		sel := (imm >> (2 * i)) & 3
		r.SetU16(i, a.U16(int(sel)))
	}
	return fault(u, faults.SiteConvert, r)
}

// ShufflehiEpi16 rearranges the high four word lanes (_mm_shufflehi_epi16).
func (u *Unit) ShufflehiEpi16(a vec.V128, imm uint8) vec.V128 {
	u.rec(opPshufhw)
	r := a
	for i := 0; i < 4; i++ {
		sel := (imm >> (2 * i)) & 3
		r.SetU16(4+i, a.U16(4+int(sel)))
	}
	return fault(u, faults.SiteConvert, r)
}

// ShufflePs selects two lanes from a then two from b (_mm_shuffle_ps).
func (u *Unit) ShufflePs(a, b vec.V128, imm uint8) vec.V128 {
	u.rec(opShufps)
	var r vec.V128
	r.SetF32(0, a.F32(int(imm&3)))
	r.SetF32(1, a.F32(int((imm>>2)&3)))
	r.SetF32(2, b.F32(int((imm>>4)&3)))
	r.SetF32(3, b.F32(int((imm>>6)&3)))
	return fault(u, faults.SiteConvert, r)
}

// --- Shifts ---

// SlliEpi16 shift left words by immediate (_mm_slli_epi16 / psllw).
func (u *Unit) SlliEpi16(a vec.V128, n uint) vec.V128 {
	u.rec(opPsllw)
	if n > 15 {
		return vec.V128{}
	}
	return fault(u, faults.SiteConvert, vec.ShlU16(a, n))
}

// SrliEpi16 logical shift right words (_mm_srli_epi16 / psrlw).
func (u *Unit) SrliEpi16(a vec.V128, n uint) vec.V128 {
	u.rec(opPsrlw)
	if n > 15 {
		return vec.V128{}
	}
	return fault(u, faults.SiteConvert, vec.ShrU16(a, n))
}

// SraiEpi16 arithmetic shift right words (_mm_srai_epi16 / psraw).
func (u *Unit) SraiEpi16(a vec.V128, n uint) vec.V128 {
	u.rec(opPsraw)
	return fault(u, faults.SiteConvert, vec.SarI16(a, n))
}

// SlliEpi32 shift left dwords (_mm_slli_epi32 / pslld).
func (u *Unit) SlliEpi32(a vec.V128, n uint) vec.V128 {
	u.rec(opPslld)
	var r vec.V128
	if n > 31 {
		return r
	}
	for i := 0; i < 4; i++ {
		r.SetU32(i, a.U32(i)<<n)
	}
	return fault(u, faults.SiteConvert, r)
}

// SrliEpi32 logical shift right dwords (_mm_srli_epi32 / psrld).
func (u *Unit) SrliEpi32(a vec.V128, n uint) vec.V128 {
	u.rec(opPsrld)
	var r vec.V128
	if n > 31 {
		return r
	}
	for i := 0; i < 4; i++ {
		r.SetU32(i, a.U32(i)>>n)
	}
	return fault(u, faults.SiteConvert, r)
}

// SraiEpi32 arithmetic shift right dwords (_mm_srai_epi32 / psrad).
func (u *Unit) SraiEpi32(a vec.V128, n uint) vec.V128 {
	u.rec(opPsrad)
	if n > 31 {
		n = 31
	}
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetI32(i, a.I32(i)>>n)
	}
	return fault(u, faults.SiteConvert, r)
}

// SlliSi128 byte shift left of the whole register (_mm_slli_si128 / pslldq).
func (u *Unit) SlliSi128(a vec.V128, n int) vec.V128 {
	u.rec(opPslldq)
	var r vec.V128
	if n > 15 {
		return r
	}
	for i := 15; i >= n; i-- {
		r.SetU8(i, a.U8(i-n))
	}
	return fault(u, faults.SiteConvert, r)
}

// SrliSi128 byte shift right of the whole register (_mm_srli_si128 / psrldq).
func (u *Unit) SrliSi128(a vec.V128, n int) vec.V128 {
	u.rec(opPsrldq)
	var r vec.V128
	if n > 15 {
		return r
	}
	for i := 0; i < 16-n; i++ {
		r.SetU8(i, a.U8(i+n))
	}
	return fault(u, faults.SiteConvert, r)
}
