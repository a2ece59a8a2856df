package sse2

import (
	"math"

	"simdstudy/internal/faults"
	"simdstudy/internal/sat"
	"simdstudy/internal/vec"
)

// --- Float arithmetic ---

// AddPs adds four float lanes (_mm_add_ps).
func (u *Unit) AddPs(a, b vec.V128) vec.V128 {
	u.rec(opAddps)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetF32(i, a.F32(i)+b.F32(i))
	}
	return fault(u, faults.SiteALU, r)
}

// SubPs subtracts four float lanes (_mm_sub_ps).
func (u *Unit) SubPs(a, b vec.V128) vec.V128 {
	u.rec(opSubps)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetF32(i, a.F32(i)-b.F32(i))
	}
	return fault(u, faults.SiteALU, r)
}

// MulPs multiplies four float lanes (_mm_mul_ps).
func (u *Unit) MulPs(a, b vec.V128) vec.V128 {
	u.rec(opMulps)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetF32(i, a.F32(i)*b.F32(i))
	}
	return fault(u, faults.SiteALU, r)
}

// DivPs divides four float lanes (_mm_div_ps). SSE2 has vector division;
// NEON does not — the paper notes this asymmetry.
func (u *Unit) DivPs(a, b vec.V128) vec.V128 {
	u.rec(opDivps)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetF32(i, a.F32(i)/b.F32(i))
	}
	return fault(u, faults.SiteALU, r)
}

// SqrtPs takes the square root of four float lanes (_mm_sqrt_ps).
func (u *Unit) SqrtPs(a vec.V128) vec.V128 {
	u.rec(opSqrtps)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetF32(i, float32(math.Sqrt(float64(a.F32(i)))))
	}
	return fault(u, faults.SiteALU, r)
}

// RcpPs reciprocal estimate with ~12 bits of precision (_mm_rcp_ps).
func (u *Unit) RcpPs(a vec.V128) vec.V128 {
	u.rec(opRcpps)
	var r vec.V128
	for i := 0; i < 4; i++ {
		bits := math.Float32bits(1 / a.F32(i))
		bits &= 0xFFFFF000 // 12-bit estimate precision
		r.SetF32(i, math.Float32frombits(bits))
	}
	return fault(u, faults.SiteALU, r)
}

// AddPd adds two double lanes (_mm_add_pd).
func (u *Unit) AddPd(a, b vec.V128) vec.V128 {
	u.rec(opAddpd)
	var r vec.V128
	for i := 0; i < 2; i++ {
		r.SetF64(i, a.F64(i)+b.F64(i))
	}
	return fault(u, faults.SiteALU, r)
}

// MulPd multiplies two double lanes (_mm_mul_pd).
func (u *Unit) MulPd(a, b vec.V128) vec.V128 {
	u.rec(opMulpd)
	var r vec.V128
	for i := 0; i < 2; i++ {
		r.SetF64(i, a.F64(i)*b.F64(i))
	}
	return fault(u, faults.SiteALU, r)
}

// MinPs lane-wise float minimum (_mm_min_ps).
func (u *Unit) MinPs(a, b vec.V128) vec.V128 {
	u.rec(opMinps)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetF32(i, float32(math.Min(float64(a.F32(i)), float64(b.F32(i)))))
	}
	return fault(u, faults.SiteALU, r)
}

// MaxPs lane-wise float maximum (_mm_max_ps).
func (u *Unit) MaxPs(a, b vec.V128) vec.V128 {
	u.rec(opMaxps)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetF32(i, float32(math.Max(float64(a.F32(i)), float64(b.F32(i)))))
	}
	return fault(u, faults.SiteALU, r)
}

// --- Integer arithmetic ---

// AddEpi8 adds sixteen byte lanes with wraparound (_mm_add_epi8).
func (u *Unit) AddEpi8(a, b vec.V128) vec.V128 {
	u.rec(opPaddb)
	return fault(u, faults.SiteALU, vec.AddU8(a, b))
}

// AddEpi16 adds eight int16 lanes with wraparound (_mm_add_epi16).
func (u *Unit) AddEpi16(a, b vec.V128) vec.V128 {
	u.rec(opPaddw)
	return fault(u, faults.SiteALU, vec.AddU16(a, b))
}

// AddEpi32 adds four int32 lanes with wraparound (_mm_add_epi32).
func (u *Unit) AddEpi32(a, b vec.V128) vec.V128 {
	u.rec(opPaddd)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetI32(i, a.I32(i)+b.I32(i))
	}
	return fault(u, faults.SiteALU, r)
}

// SubEpi8 subtracts sixteen byte lanes with wraparound (_mm_sub_epi8).
func (u *Unit) SubEpi8(a, b vec.V128) vec.V128 {
	u.rec(opPsubb)
	return fault(u, faults.SiteALU, vec.SubU8(a, b))
}

// SubEpi16 subtracts eight int16 lanes with wraparound (_mm_sub_epi16).
func (u *Unit) SubEpi16(a, b vec.V128) vec.V128 {
	u.rec(opPsubw)
	return fault(u, faults.SiteALU, vec.SubU16(a, b))
}

// SubEpi32 subtracts four int32 lanes with wraparound (_mm_sub_epi32).
func (u *Unit) SubEpi32(a, b vec.V128) vec.V128 {
	u.rec(opPsubd)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetI32(i, a.I32(i)-b.I32(i))
	}
	return fault(u, faults.SiteALU, r)
}

// AddsEpi16 adds with signed saturation (_mm_adds_epi16 / paddsw).
func (u *Unit) AddsEpi16(a, b vec.V128) vec.V128 {
	u.rec(opPaddsw)
	return fault(u, faults.SiteALU, vec.AddSatI16(a, b))
}

// AddsEpu8 adds with unsigned saturation (_mm_adds_epu8 / paddusb).
func (u *Unit) AddsEpu8(a, b vec.V128) vec.V128 {
	u.rec(opPaddusb)
	var r vec.V128
	for i := 0; i < 16; i++ {
		r.SetU8(i, sat.AddUint8(a.U8(i), b.U8(i)))
	}
	return fault(u, faults.SiteALU, r)
}

// SubsEpi16 subtracts with signed saturation (_mm_subs_epi16 / psubsw).
func (u *Unit) SubsEpi16(a, b vec.V128) vec.V128 {
	u.rec(opPsubsw)
	return fault(u, faults.SiteALU, vec.SubSatI16(a, b))
}

// SubsEpu8 subtracts with unsigned saturation (_mm_subs_epu8 / psubusb).
func (u *Unit) SubsEpu8(a, b vec.V128) vec.V128 {
	u.rec(opPsubusb)
	var r vec.V128
	for i := 0; i < 16; i++ {
		r.SetU8(i, sat.SubUint8(a.U8(i), b.U8(i)))
	}
	return fault(u, faults.SiteALU, r)
}

// MulloEpi16 multiplies int16 lanes keeping the low half (_mm_mullo_epi16).
func (u *Unit) MulloEpi16(a, b vec.V128) vec.V128 {
	u.rec(opPmullw)
	return fault(u, faults.SiteALU, vec.MulLoU16(a, b))
}

// MulhiEpi16 multiplies int16 lanes keeping the high half (_mm_mulhi_epi16).
func (u *Unit) MulhiEpi16(a, b vec.V128) vec.V128 {
	u.rec(opPmulhw)
	var r vec.V128
	for i := 0; i < 8; i++ {
		r.SetI16(i, int16((int32(a.I16(i))*int32(b.I16(i)))>>16))
	}
	return fault(u, faults.SiteALU, r)
}

// MulhiEpu16 unsigned high multiply (_mm_mulhi_epu16).
func (u *Unit) MulhiEpu16(a, b vec.V128) vec.V128 {
	u.rec(opPmulhuw)
	var r vec.V128
	for i := 0; i < 8; i++ {
		r.SetU16(i, uint16((uint32(a.U16(i))*uint32(b.U16(i)))>>16))
	}
	return fault(u, faults.SiteALU, r)
}

// MaddEpi16 multiply and horizontally add pairs into int32 lanes
// (_mm_madd_epi16 / pmaddwd) — the classic dot-product building block used
// by SSE2 convolution inner loops.
func (u *Unit) MaddEpi16(a, b vec.V128) vec.V128 {
	u.rec(opPmaddwd)
	var r vec.V128
	for i := 0; i < 4; i++ {
		p0 := int32(a.I16(2*i)) * int32(b.I16(2*i))
		p1 := int32(a.I16(2*i+1)) * int32(b.I16(2*i+1))
		r.SetI32(i, p0+p1)
	}
	return fault(u, faults.SiteALU, r)
}

// AvgEpu8 rounded average of unsigned bytes (_mm_avg_epu8 / pavgb).
func (u *Unit) AvgEpu8(a, b vec.V128) vec.V128 {
	u.rec(opPavgb)
	var r vec.V128
	for i := 0; i < 16; i++ {
		r.SetU8(i, uint8((uint16(a.U8(i))+uint16(b.U8(i))+1)>>1))
	}
	return fault(u, faults.SiteALU, r)
}

// AvgEpu16 rounded average of unsigned words (_mm_avg_epu16 / pavgw).
func (u *Unit) AvgEpu16(a, b vec.V128) vec.V128 {
	u.rec(opPavgw)
	var r vec.V128
	for i := 0; i < 8; i++ {
		r.SetU16(i, uint16((uint32(a.U16(i))+uint32(b.U16(i))+1)>>1))
	}
	return fault(u, faults.SiteALU, r)
}

// SadEpu8 sum of absolute differences over each 8-byte half
// (_mm_sad_epu8 / psadbw).
func (u *Unit) SadEpu8(a, b vec.V128) vec.V128 {
	u.rec(opPsadbw)
	d := vec.AbsDiffU8(a, b)
	return fault(u, faults.SiteALU, vec.V128{Lo: sumBytes(d.Lo), Hi: sumBytes(d.Hi)})
}

// sumBytes adds the eight bytes of w: pairs, then quads, then the two
// halves, each partial sum fitting the field it lands in.
func sumBytes(w uint64) uint64 {
	w = w&0x00FF00FF00FF00FF + w>>8&0x00FF00FF00FF00FF
	w = w&0x0000FFFF0000FFFF + w>>16&0x0000FFFF0000FFFF
	return w&0xFFFFFFFF + w>>32
}

// MinEpu8 lane-wise unsigned byte minimum (_mm_min_epu8 / pminub). The
// truncation threshold benchmark reduces to exactly this instruction.
func (u *Unit) MinEpu8(a, b vec.V128) vec.V128 {
	u.rec(opPminub)
	return fault(u, faults.SiteALU, vec.MinU8(a, b))
}

// MaxEpu8 lane-wise unsigned byte maximum (_mm_max_epu8 / pmaxub).
func (u *Unit) MaxEpu8(a, b vec.V128) vec.V128 {
	u.rec(opPmaxub)
	return fault(u, faults.SiteALU, vec.MaxU8(a, b))
}

// MinEpi16 lane-wise int16 minimum (_mm_min_epi16 / pminsw).
func (u *Unit) MinEpi16(a, b vec.V128) vec.V128 {
	u.rec(opPminsw)
	return fault(u, faults.SiteALU, vec.MinI16(a, b))
}

// MaxEpi16 lane-wise int16 maximum (_mm_max_epi16 / pmaxsw).
func (u *Unit) MaxEpi16(a, b vec.V128) vec.V128 {
	u.rec(opPmaxsw)
	return fault(u, faults.SiteALU, vec.MaxI16(a, b))
}
