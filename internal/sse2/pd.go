package sse2

import (
	"math"

	"simdstudy/internal/faults"
	"simdstudy/internal/vec"
)

// Second tranche of SSE2 operations: the double-precision packed (pd) and
// scalar (sd/ss) forms, 64-bit integer lanes and the remaining movement
// ops. The paper's Section II-C notes SSE2's double-precision support as
// an asymmetry against ARMv7 NEON, which is single-precision only.

// SubPd subtracts two double lanes (_mm_sub_pd).
func (u *Unit) SubPd(a, b vec.V128) vec.V128 {
	u.rec(opSubpd)
	var r vec.V128
	for i := 0; i < 2; i++ {
		r.SetF64(i, a.F64(i)-b.F64(i))
	}
	return fault(u, faults.SiteALU, r)
}

// DivPd divides two double lanes (_mm_div_pd) — packed FP division, which
// NEON lacks entirely (the paper calls this out).
func (u *Unit) DivPd(a, b vec.V128) vec.V128 {
	u.rec(opDivpd)
	var r vec.V128
	for i := 0; i < 2; i++ {
		r.SetF64(i, a.F64(i)/b.F64(i))
	}
	return fault(u, faults.SiteALU, r)
}

// SqrtPd takes square roots of two double lanes (_mm_sqrt_pd).
func (u *Unit) SqrtPd(a vec.V128) vec.V128 {
	u.rec(opSqrtpd)
	var r vec.V128
	for i := 0; i < 2; i++ {
		r.SetF64(i, math.Sqrt(a.F64(i)))
	}
	return fault(u, faults.SiteALU, r)
}

// MinPd lane-wise double minimum (_mm_min_pd).
func (u *Unit) MinPd(a, b vec.V128) vec.V128 {
	u.rec(opMinpd)
	var r vec.V128
	for i := 0; i < 2; i++ {
		r.SetF64(i, math.Min(a.F64(i), b.F64(i)))
	}
	return fault(u, faults.SiteALU, r)
}

// MaxPd lane-wise double maximum (_mm_max_pd).
func (u *Unit) MaxPd(a, b vec.V128) vec.V128 {
	u.rec(opMaxpd)
	var r vec.V128
	for i := 0; i < 2; i++ {
		r.SetF64(i, math.Max(a.F64(i), b.F64(i)))
	}
	return fault(u, faults.SiteALU, r)
}

func maskF64(c bool) uint64 {
	if c {
		return math.MaxUint64
	}
	return 0
}

// CmpltPd compare less-than doubles (_mm_cmplt_pd).
func (u *Unit) CmpltPd(a, b vec.V128) vec.V128 {
	u.rec(opCmppdLt)
	var r vec.V128
	for i := 0; i < 2; i++ {
		r.SetU64(i, maskF64(a.F64(i) < b.F64(i)))
	}
	return fault(u, faults.SiteALU, r)
}

// CmpeqPd compare equal doubles (_mm_cmpeq_pd).
func (u *Unit) CmpeqPd(a, b vec.V128) vec.V128 {
	u.rec(opCmppdEq)
	var r vec.V128
	for i := 0; i < 2; i++ {
		r.SetU64(i, maskF64(a.F64(i) == b.F64(i)))
	}
	return fault(u, faults.SiteALU, r)
}

// CmpordPs ordered compare: mask set where neither operand is NaN
// (_mm_cmpord_ps).
func (u *Unit) CmpordPs(a, b vec.V128) vec.V128 {
	u.rec(opCmppsOrd)
	var r vec.V128
	for i := 0; i < 4; i++ {
		fa, fb := a.F32(i), b.F32(i)
		r.SetU32(i, vec.Mask32(fa == fa && fb == fb))
	}
	return fault(u, faults.SiteALU, r)
}

// CmpunordPs unordered compare: mask set where either operand is NaN
// (_mm_cmpunord_ps).
func (u *Unit) CmpunordPs(a, b vec.V128) vec.V128 {
	u.rec(opCmppsUnord)
	var r vec.V128
	for i := 0; i < 4; i++ {
		fa, fb := a.F32(i), b.F32(i)
		r.SetU32(i, vec.Mask32(fa != fa || fb != fb))
	}
	return fault(u, faults.SiteALU, r)
}

// MovemaskPd gathers the sign bits of the double lanes (_mm_movemask_pd).
func (u *Unit) MovemaskPd(v vec.V128) int {
	u.rec(opMovmskpd)
	m := 0
	for i := 0; i < 2; i++ {
		if v.U64(i)&(1<<63) != 0 {
			m |= 1 << i
		}
	}
	return m
}

// ShufflePd selects one double from each operand (_mm_shuffle_pd).
func (u *Unit) ShufflePd(a, b vec.V128, imm uint8) vec.V128 {
	u.rec(opShufpd)
	var r vec.V128
	r.SetF64(0, a.F64(int(imm&1)))
	r.SetF64(1, b.F64(int((imm>>1)&1)))
	return fault(u, faults.SiteALU, r)
}

// RsqrtPs reciprocal square-root estimate, ~12 bits (_mm_rsqrt_ps).
func (u *Unit) RsqrtPs(a vec.V128) vec.V128 {
	u.rec(opRsqrtps)
	var r vec.V128
	for i := 0; i < 4; i++ {
		bits := math.Float32bits(float32(1 / math.Sqrt(float64(a.F32(i)))))
		bits &= 0xFFFFF000
		r.SetF32(i, math.Float32frombits(bits))
	}
	return fault(u, faults.SiteALU, r)
}

// --- Scalar (ss/sd) forms: operate on lane 0, pass the rest through ---

// AddSs scalar float add (_mm_add_ss).
func (u *Unit) AddSs(a, b vec.V128) vec.V128 {
	u.rec(opAddss)
	r := a
	r.SetF32(0, a.F32(0)+b.F32(0))
	return fault(u, faults.SiteALU, r)
}

// MulSs scalar float multiply (_mm_mul_ss).
func (u *Unit) MulSs(a, b vec.V128) vec.V128 {
	u.rec(opMulss)
	r := a
	r.SetF32(0, a.F32(0)*b.F32(0))
	return fault(u, faults.SiteALU, r)
}

// AddSd scalar double add (_mm_add_sd).
func (u *Unit) AddSd(a, b vec.V128) vec.V128 {
	u.rec(opAddsd)
	r := a
	r.SetF64(0, a.F64(0)+b.F64(0))
	return fault(u, faults.SiteALU, r)
}

// CvtssSd widens the low float to a double in lane 0 (_mm_cvtss_sd).
func (u *Unit) CvtssSd(a, b vec.V128) vec.V128 {
	u.rec(opCvtss2sd)
	r := a
	r.SetF64(0, float64(b.F32(0)))
	return fault(u, faults.SiteALU, r)
}

// Cvtsi32Sd converts an int32 into the low double (_mm_cvtsi32_sd).
func (u *Unit) Cvtsi32Sd(a vec.V128, x int32) vec.V128 {
	u.rec(opCvtsi2sd)
	r := a
	r.SetF64(0, float64(x))
	return fault(u, faults.SiteALU, r)
}

// --- 64-bit integer lanes ---

// AddEpi64 adds the two 64-bit lanes (_mm_add_epi64 / paddq).
func (u *Unit) AddEpi64(a, b vec.V128) vec.V128 {
	u.rec(opPaddq)
	var r vec.V128
	r.SetI64(0, a.I64(0)+b.I64(0))
	r.SetI64(1, a.I64(1)+b.I64(1))
	return fault(u, faults.SiteALU, r)
}

// SubEpi64 subtracts the 64-bit lanes (_mm_sub_epi64 / psubq).
func (u *Unit) SubEpi64(a, b vec.V128) vec.V128 {
	u.rec(opPsubq)
	var r vec.V128
	r.SetI64(0, a.I64(0)-b.I64(0))
	r.SetI64(1, a.I64(1)-b.I64(1))
	return fault(u, faults.SiteALU, r)
}

// MulEpu32 multiplies the even unsigned 32-bit lanes into 64-bit products
// (_mm_mul_epu32 / pmuludq).
func (u *Unit) MulEpu32(a, b vec.V128) vec.V128 {
	u.rec(opPmuludq)
	var r vec.V128
	r.SetU64(0, uint64(a.U32(0))*uint64(b.U32(0)))
	r.SetU64(1, uint64(a.U32(2))*uint64(b.U32(2)))
	return fault(u, faults.SiteALU, r)
}

// SlliEpi64 shifts the 64-bit lanes left (_mm_slli_epi64 / psllq).
func (u *Unit) SlliEpi64(a vec.V128, n uint) vec.V128 {
	u.rec(opPsllq)
	var r vec.V128
	if n > 63 {
		return r
	}
	r.SetU64(0, a.U64(0)<<n)
	r.SetU64(1, a.U64(1)<<n)
	return fault(u, faults.SiteALU, r)
}

// SrliEpi64 shifts the 64-bit lanes right logically (_mm_srli_epi64).
func (u *Unit) SrliEpi64(a vec.V128, n uint) vec.V128 {
	u.rec(opPsrlq)
	var r vec.V128
	if n > 63 {
		return r
	}
	r.SetU64(0, a.U64(0)>>n)
	r.SetU64(1, a.U64(1)>>n)
	return fault(u, faults.SiteALU, r)
}

// MoveEpi64 copies the low qword and zeroes the high (_mm_move_epi64).
func (u *Unit) MoveEpi64(a vec.V128) vec.V128 {
	u.rec(opMovqReg)
	var r vec.V128
	r.SetU64(0, a.U64(0))
	return fault(u, faults.SiteALU, r)
}

// InsertEpi16 inserts a 16-bit value into the given lane (_mm_insert_epi16
// / pinsrw).
func (u *Unit) InsertEpi16(a vec.V128, x int, lane int) vec.V128 {
	u.rec(opPinsrw)
	a.SetU16(lane, uint16(x))
	return a
}

// UnpackloPs interleaves the low float lanes (_mm_unpacklo_ps).
func (u *Unit) UnpackloPs(a, b vec.V128) vec.V128 {
	u.rec(opUnpcklps)
	var r vec.V128
	r.SetF32(0, a.F32(0))
	r.SetF32(1, b.F32(0))
	r.SetF32(2, a.F32(1))
	r.SetF32(3, b.F32(1))
	return fault(u, faults.SiteALU, r)
}

// UnpackhiPs interleaves the high float lanes (_mm_unpackhi_ps).
func (u *Unit) UnpackhiPs(a, b vec.V128) vec.V128 {
	u.rec(opUnpckhps)
	var r vec.V128
	r.SetF32(0, a.F32(2))
	r.SetF32(1, b.F32(2))
	r.SetF32(2, a.F32(3))
	r.SetF32(3, b.F32(3))
	return fault(u, faults.SiteALU, r)
}

// MovehlPs moves the high pair of b into the low pair of the result, with
// a's high pair on top (_mm_movehl_ps).
func (u *Unit) MovehlPs(a, b vec.V128) vec.V128 {
	u.rec(opMovhlps)
	var r vec.V128
	r.SetF32(0, b.F32(2))
	r.SetF32(1, b.F32(3))
	r.SetF32(2, a.F32(2))
	r.SetF32(3, a.F32(3))
	return fault(u, faults.SiteALU, r)
}

// MovelhPs concatenates the low pairs (_mm_movelh_ps).
func (u *Unit) MovelhPs(a, b vec.V128) vec.V128 {
	u.rec(opMovlhps)
	var r vec.V128
	r.SetF32(0, a.F32(0))
	r.SetF32(1, a.F32(1))
	r.SetF32(2, b.F32(0))
	r.SetF32(3, b.F32(1))
	return fault(u, faults.SiteALU, r)
}
