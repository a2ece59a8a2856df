package neon

import (
	"math"

	"simdstudy/internal/faults"
	"simdstudy/internal/sat"
	"simdstudy/internal/vec"
)

// --- Conversions ---

// VcvtqS32F32 converts four float lanes to int32, truncating toward zero
// with saturation (vcvt.s32.f32). Core of the convert benchmark.
func (u *Unit) VcvtqS32F32(a vec.V128) vec.V128 {
	u.rec(opVcvtS32F32)
	return fault(u, faults.SiteConvert, cvtqS32F32(a))
}

// cvtqS32F32 is vcvt.s32.f32 read and written a word at a time: each
// 64-bit word holds two float lanes, converted in place.
func cvtqS32F32(a vec.V128) vec.V128 {
	return vec.V128{Lo: cvtS32F32(a.Lo) | cvtS32F32(a.Lo>>32)<<32, Hi: cvtS32F32(a.Hi) | cvtS32F32(a.Hi>>32)<<32}
}

// cvtS32F32 converts the float32 in the low 32 bits of x (vcvt.s32.f32 on
// one lane) and returns the int32's bits.
func cvtS32F32(x uint64) uint64 {
	return uint64(uint32(sat.Float32ToInt32Truncate(math.Float32frombits(uint32(x)))))
}

// VcvtqF32S32 converts four int32 lanes to float (vcvt.f32.s32).
func (u *Unit) VcvtqF32S32(a vec.V128) vec.V128 {
	u.rec(opVcvtF32S32)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetF32(i, float32(a.I32(i)))
	}
	return fault(u, faults.SiteConvert, r)
}

// VcvtqU32F32 converts float lanes to uint32 with saturation at zero
// (vcvt.u32.f32).
func (u *Unit) VcvtqU32F32(a vec.V128) vec.V128 {
	u.rec(opVcvtU32F32)
	var r vec.V128
	for i := 0; i < 4; i++ {
		f := a.F32(i)
		switch {
		case f != f || f <= 0: // NaN or negative
			r.SetU32(i, 0)
		case float64(f) >= 4294967295:
			r.SetU32(i, 0xFFFFFFFF)
		default:
			r.SetU32(i, uint32(f))
		}
	}
	return fault(u, faults.SiteConvert, r)
}

// VcvtqF32U32 converts uint32 lanes to float (vcvt.f32.u32).
func (u *Unit) VcvtqF32U32(a vec.V128) vec.V128 {
	u.rec(opVcvtF32U32)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetF32(i, float32(a.U32(i)))
	}
	return fault(u, faults.SiteConvert, r)
}

// VcvtqNS32F32 converts float to fixed-point S32 with n fractional bits
// (vcvt.s32.f32 #n).
func (u *Unit) VcvtqNS32F32(a vec.V128, n uint) vec.V128 {
	u.rec(opVcvtS32F32Fx)
	var r vec.V128
	scale := float64(int64(1) << n)
	for i := 0; i < 4; i++ {
		r.SetI32(i, sat.Float64ToInt32(float64(a.F32(i))*scale))
	}
	return fault(u, faults.SiteConvert, r)
}

// --- Narrowing moves ---

// VqmovnS32 saturating narrow: four int32 lanes to four int16 lanes in a D
// register (vqmovn.s32). The paper's convert loop uses two of these.
func (u *Unit) VqmovnS32(a vec.V128) vec.V64 {
	u.rec(opVqmovnS32)
	return fault(u, faults.SiteConvert, vec.SatI16I32(a))
}

// VqmovnS16 saturating narrow: eight int16 lanes to eight int8 lanes
// (vqmovn.s16).
func (u *Unit) VqmovnS16(a vec.V128) vec.V64 {
	u.rec(opVqmovnS16)
	return fault(u, faults.SiteConvert, vec.SatI8I16(a))
}

// VqmovunS16 saturating narrow signed to unsigned: int16 lanes to uint8
// (vqmovun.s16). Used when converting filtered results back to pixels.
func (u *Unit) VqmovunS16(a vec.V128) vec.V64 {
	u.rec(opVqmovunS16)
	return fault(u, faults.SiteConvert, vec.SatU8I16(a))
}

// VqmovnU16 saturating narrow: uint16 lanes to uint8 (vqmovn.u16).
func (u *Unit) VqmovnU16(a vec.V128) vec.V64 {
	u.rec(opVqmovnU16)
	var r vec.V64
	for i := 0; i < 8; i++ {
		r.SetU8(i, sat.NarrowUint16ToUint8(a.U16(i)))
	}
	return fault(u, faults.SiteConvert, r)
}

// VmovnS32 truncating narrow: low halves of int32 lanes (vmovn.i32).
func (u *Unit) VmovnS32(a vec.V128) vec.V64 {
	u.rec(opVmovnI32)
	var r vec.V64
	for i := 0; i < 4; i++ {
		r.SetI16(i, int16(a.I32(i)))
	}
	return fault(u, faults.SiteConvert, r)
}

// VmovnU16 truncating narrow: low bytes of uint16 lanes (vmovn.i16).
func (u *Unit) VmovnU16(a vec.V128) vec.V64 {
	u.rec(opVmovnI16)
	return fault(u, faults.SiteConvert, vec.NarrowU16(a))
}

// --- Widening moves ---

// VmovlU8 widens eight bytes to eight uint16 lanes (vmovl.u8).
func (u *Unit) VmovlU8(a vec.V64) vec.V128 {
	u.rec(opVmovlU8)
	return fault(u, faults.SiteConvert, vec.WidenU8(a))
}

// VmovlS8 widens eight signed bytes to int16 lanes (vmovl.s8).
func (u *Unit) VmovlS8(a vec.V64) vec.V128 {
	u.rec(opVmovlS8)
	var r vec.V128
	for i := 0; i < 8; i++ {
		r.SetI16(i, int16(a.I8(i)))
	}
	return fault(u, faults.SiteConvert, r)
}

// VmovlS16 widens four int16 lanes to int32 (vmovl.s16).
func (u *Unit) VmovlS16(a vec.V64) vec.V128 {
	u.rec(opVmovlS16)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetI32(i, int32(a.I16(i)))
	}
	return fault(u, faults.SiteConvert, r)
}

// VmovlU16 widens four uint16 lanes to uint32 (vmovl.u16).
func (u *Unit) VmovlU16(a vec.V64) vec.V128 {
	u.rec(opVmovlU16)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetU32(i, uint32(a.U16(i)))
	}
	return fault(u, faults.SiteConvert, r)
}

// --- Shifts ---

// VshlqNS16 shift left by constant (vshl.i16 #n).
func (u *Unit) VshlqNS16(a vec.V128, n uint) vec.V128 {
	u.rec(opVshlI16)
	return fault(u, faults.SiteConvert, vec.ShlU16(a, n))
}

// VshrqNS16 arithmetic shift right by constant (vshr.s16 #n).
func (u *Unit) VshrqNS16(a vec.V128, n uint) vec.V128 {
	u.rec(opVshrS16)
	return fault(u, faults.SiteConvert, vec.SarI16(a, n))
}

// VshrqNU16 logical shift right by constant (vshr.u16 #n).
func (u *Unit) VshrqNU16(a vec.V128, n uint) vec.V128 {
	u.rec(opVshrU16)
	return fault(u, faults.SiteConvert, vec.ShrU16(a, n))
}

// VshrqNU8 logical shift right bytes by constant (vshr.u8 #n).
func (u *Unit) VshrqNU8(a vec.V128, n uint) vec.V128 {
	u.rec(opVshrU8)
	var r vec.V128
	for i := 0; i < 16; i++ {
		r.SetU8(i, a.U8(i)>>n)
	}
	return fault(u, faults.SiteConvert, r)
}

// VrshrqNU16 rounding shift right: (a + (1<<(n-1))) >> n (vrshr.u16 #n).
func (u *Unit) VrshrqNU16(a vec.V128, n uint) vec.V128 {
	u.rec(opVrshrU16)
	return fault(u, faults.SiteConvert, vec.RoundShrU16(a, n))
}

// VrshrqNS32 rounding arithmetic shift right on int32 lanes (vrshr.s32 #n).
func (u *Unit) VrshrqNS32(a vec.V128, n uint) vec.V128 {
	u.rec(opVrshrS32)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetI32(i, int32((int64(a.I32(i))+(1<<(n-1)))>>n))
	}
	return fault(u, faults.SiteConvert, r)
}

// VrshrnNU16 rounding shift right and narrow: uint16 lanes to uint8 D
// register (vrshrn.u16 #n). The fixed-point Gaussian uses this to rescale.
func (u *Unit) VrshrnNU16(a vec.V128, n uint) vec.V64 {
	u.rec(opVrshrnU16)
	// vrshrn truncates; callers keep values in range.
	return fault(u, faults.SiteConvert, vec.RoundShrNarrowU16(a, n))
}

// VqrshrnNS32 saturating rounding shift right narrow: int32 to int16
// (vqrshrn.s32 #n).
func (u *Unit) VqrshrnNS32(a vec.V128, n uint) vec.V64 {
	u.rec(opVqrshrnS32)
	var r vec.V64
	for i := 0; i < 4; i++ {
		v := (int64(a.I32(i)) + (1 << (n - 1))) >> n
		r.SetI16(i, sat.Int16(v))
	}
	return fault(u, faults.SiteConvert, r)
}

// VqshlqNS16 saturating shift left by constant (vqshl.s16 #n).
func (u *Unit) VqshlqNS16(a vec.V128, n uint) vec.V128 {
	u.rec(opVqshlS16)
	var r vec.V128
	for i := 0; i < 8; i++ {
		r.SetI16(i, sat.ShiftLeftInt16(a.I16(i), n))
	}
	return fault(u, faults.SiteConvert, r)
}

// VshlqS16 shift left by signed per-lane variable; negative shifts right
// (vshl.s16 with register operand).
func (u *Unit) VshlqS16(a, shifts vec.V128) vec.V128 {
	u.rec(opVshlS16Reg)
	var r vec.V128
	for i := 0; i < 8; i++ {
		s := int8(shifts.I16(i)) // low byte of shift lane, per ARM ARM
		switch {
		case s >= 16 || s <= -16:
			r.SetI16(i, 0)
			if s <= -16 && a.I16(i) < 0 {
				r.SetI16(i, -1)
			}
		case s >= 0:
			r.SetI16(i, a.I16(i)<<uint(s))
		default:
			r.SetI16(i, a.I16(i)>>uint(-s))
		}
	}
	return fault(u, faults.SiteConvert, r)
}

// VsraqNS16 shift right and accumulate (vsra.s16 #n).
func (u *Unit) VsraqNS16(acc, a vec.V128, n uint) vec.V128 {
	u.rec(opVsraS16)
	return fault(u, faults.SiteConvert, vec.AddU16(acc, vec.SarI16(a, n)))
}
