package sse2

import (
	"simdstudy/internal/faults"
	"simdstudy/internal/vec"
)

// --- Bitwise logical ---

// AndSi128 bitwise AND (_mm_and_si128 / pand).
func (u *Unit) AndSi128(a, b vec.V128) vec.V128 {
	u.rec(opPand)
	return vec.And(a, b)
}

// OrSi128 bitwise OR (_mm_or_si128 / por).
func (u *Unit) OrSi128(a, b vec.V128) vec.V128 {
	u.rec(opPor)
	return vec.Or(a, b)
}

// XorSi128 bitwise XOR (_mm_xor_si128 / pxor).
func (u *Unit) XorSi128(a, b vec.V128) vec.V128 {
	u.rec(opPxor)
	return vec.Xor(a, b)
}

// AndnotSi128 bitwise ^a & b (_mm_andnot_si128 / pandn). Note the operand
// order: the FIRST operand is complemented, a frequent source of bugs in
// hand-written SSE2 that our tests pin down.
func (u *Unit) AndnotSi128(a, b vec.V128) vec.V128 {
	u.rec(opPandn)
	return vec.AndNot(a, b)
}

// AndPs bitwise AND on float-typed registers (_mm_and_ps / andps).
func (u *Unit) AndPs(a, b vec.V128) vec.V128 {
	u.rec(opAndps)
	return vec.And(a, b)
}

// OrPs bitwise OR on float-typed registers (_mm_or_ps / orps).
func (u *Unit) OrPs(a, b vec.V128) vec.V128 {
	u.rec(opOrps)
	return vec.Or(a, b)
}

// AndnotPs bitwise ^a & b on float-typed registers (_mm_andnot_ps).
func (u *Unit) AndnotPs(a, b vec.V128) vec.V128 {
	u.rec(opAndnps)
	return vec.AndNot(a, b)
}

// --- Comparisons ---

// CmpeqEpi8 compare equal bytes (_mm_cmpeq_epi8 / pcmpeqb).
func (u *Unit) CmpeqEpi8(a, b vec.V128) vec.V128 {
	u.rec(opPcmpeqb)
	return fault(u, faults.SiteALU, vec.EqU8(a, b))
}

// CmpgtEpi8 compare greater-than signed bytes (_mm_cmpgt_epi8 / pcmpgtb).
// SSE2 has no unsigned byte compare; kernels bias by 0x80 first — an extra
// instruction NEON does not need, visible in the threshold benchmark's
// instruction counts.
func (u *Unit) CmpgtEpi8(a, b vec.V128) vec.V128 {
	u.rec(opPcmpgtb)
	return fault(u, faults.SiteALU, vec.GtI8(a, b))
}

// CmpeqEpi16 compare equal words (_mm_cmpeq_epi16 / pcmpeqw).
func (u *Unit) CmpeqEpi16(a, b vec.V128) vec.V128 {
	u.rec(opPcmpeqw)
	return fault(u, faults.SiteALU, vec.EqU16(a, b))
}

// CmpgtEpi16 compare greater-than signed words (_mm_cmpgt_epi16 / pcmpgtw).
func (u *Unit) CmpgtEpi16(a, b vec.V128) vec.V128 {
	u.rec(opPcmpgtw)
	return fault(u, faults.SiteALU, vec.GtI16(a, b))
}

// CmpltEpi16 compare less-than signed words (_mm_cmplt_epi16).
func (u *Unit) CmpltEpi16(a, b vec.V128) vec.V128 {
	u.rec(opPcmpgtw) // assembles to pcmpgtw with swapped operands
	return fault(u, faults.SiteALU, vec.GtI16(b, a))
}

// CmpgtEpi32 compare greater-than signed dwords (_mm_cmpgt_epi32).
func (u *Unit) CmpgtEpi32(a, b vec.V128) vec.V128 {
	u.rec(opPcmpgtd)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetU32(i, vec.Mask32(a.I32(i) > b.I32(i)))
	}
	return fault(u, faults.SiteALU, r)
}

// CmpeqEpi32 compare equal dwords (_mm_cmpeq_epi32).
func (u *Unit) CmpeqEpi32(a, b vec.V128) vec.V128 {
	u.rec(opPcmpeqd)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetU32(i, vec.Mask32(a.I32(i) == b.I32(i)))
	}
	return fault(u, faults.SiteALU, r)
}

// CmpgtPs compare greater-than floats (_mm_cmpgt_ps / cmpps).
func (u *Unit) CmpgtPs(a, b vec.V128) vec.V128 {
	u.rec(opCmppsGt)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetU32(i, vec.Mask32(a.F32(i) > b.F32(i)))
	}
	return fault(u, faults.SiteALU, r)
}

// CmpgePs compare greater-or-equal floats (_mm_cmpge_ps).
func (u *Unit) CmpgePs(a, b vec.V128) vec.V128 {
	u.rec(opCmppsGe)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetU32(i, vec.Mask32(a.F32(i) >= b.F32(i)))
	}
	return fault(u, faults.SiteALU, r)
}

// CmpltPs compare less-than floats (_mm_cmplt_ps).
func (u *Unit) CmpltPs(a, b vec.V128) vec.V128 {
	u.rec(opCmppsLt)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetU32(i, vec.Mask32(a.F32(i) < b.F32(i)))
	}
	return fault(u, faults.SiteALU, r)
}

// CmpeqPs compare equal floats (_mm_cmpeq_ps).
func (u *Unit) CmpeqPs(a, b vec.V128) vec.V128 {
	u.rec(opCmppsEq)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetU32(i, vec.Mask32(a.F32(i) == b.F32(i)))
	}
	return fault(u, faults.SiteALU, r)
}

// CmpneqPs compare not-equal floats (_mm_cmpneq_ps) — SSE2 provides this
// predicate where NEON requires vceq+vmvn.
func (u *Unit) CmpneqPs(a, b vec.V128) vec.V128 {
	u.rec(opCmppsNeq)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetU32(i, vec.Mask32(a.F32(i) != b.F32(i)))
	}
	return fault(u, faults.SiteALU, r)
}
