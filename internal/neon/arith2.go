package neon

import (
	"math"
	"math/bits"

	"simdstudy/internal/faults"
	"simdstudy/internal/sat"
	"simdstudy/internal/vec"
)

// Second tranche of NEON operations: negation, halving subtract, counting,
// saturating doubling multiplies (the DSP workhorses), add/sub-narrow-high,
// pairwise forms, lane loads and table lookups with fallback. These round
// out the categories of the paper's Section II-C beyond what the five
// benchmarks strictly need.

// VnegqS16 lane-wise negate with wraparound (vneg.s16).
func (u *Unit) VnegqS16(a vec.V128) vec.V128 {
	u.rec(opVnegS16)
	var r vec.V128
	for i := 0; i < 8; i++ {
		r.SetI16(i, -a.I16(i))
	}
	return fault(u, faults.SiteALU, r)
}

// VqnegqS16 saturating negate (vqneg.s16): -MinInt16 -> MaxInt16.
func (u *Unit) VqnegqS16(a vec.V128) vec.V128 {
	u.rec(opVqnegS16)
	var r vec.V128
	for i := 0; i < 8; i++ {
		r.SetI16(i, sat.NegInt16(a.I16(i)))
	}
	return fault(u, faults.SiteALU, r)
}

// VnegqF32 float negate (vneg.f32).
func (u *Unit) VnegqF32(a vec.V128) vec.V128 {
	u.rec(opVnegF32)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetF32(i, -a.F32(i))
	}
	return fault(u, faults.SiteALU, r)
}

// VhsubqU8 halving subtract: (a-b)>>1 with the intermediate kept wide
// (vhsub.u8).
func (u *Unit) VhsubqU8(a, b vec.V128) vec.V128 {
	u.rec(opVhsubU8)
	var r vec.V128
	for i := 0; i < 16; i++ {
		d := int16(a.U8(i)) - int16(b.U8(i))
		r.SetU8(i, uint8(uint16(d)>>1)) // arithmetic shift of the wide value, truncated
	}
	return fault(u, faults.SiteALU, r)
}

// VcntqU8 per-byte population count (vcnt.8).
func (u *Unit) VcntqU8(a vec.V128) vec.V128 {
	u.rec(opVcnt8)
	var r vec.V128
	for i := 0; i < 16; i++ {
		r.SetU8(i, uint8(bits.OnesCount8(a.U8(i))))
	}
	return fault(u, faults.SiteALU, r)
}

// VclzqU8 per-byte count leading zeros (vclz.i8).
func (u *Unit) VclzqU8(a vec.V128) vec.V128 {
	u.rec(opVclzI8)
	var r vec.V128
	for i := 0; i < 16; i++ {
		r.SetU8(i, uint8(bits.LeadingZeros8(a.U8(i))))
	}
	return fault(u, faults.SiteALU, r)
}

// VclsqS16 count leading sign bits, excluding the sign bit itself
// (vcls.s16).
func (u *Unit) VclsqS16(a vec.V128) vec.V128 {
	u.rec(opVclsS16)
	var r vec.V128
	for i := 0; i < 8; i++ {
		v := a.I16(i)
		if v < 0 {
			v = ^v
		}
		// Leading zeros of the magnitude pattern minus the sign position.
		r.SetI16(i, int16(bits.LeadingZeros16(uint16(v))-1))
	}
	return fault(u, faults.SiteALU, r)
}

// VqdmulhqS16 saturating doubling multiply returning the high half
// (vqdmulh.s16): (2*a*b)>>16 with saturation, the fixed-point Q15
// multiply every DSP kernel leans on.
func (u *Unit) VqdmulhqS16(a, b vec.V128) vec.V128 {
	u.rec(opVqdmulhS16)
	var r vec.V128
	for i := 0; i < 8; i++ {
		// The doubled product saturates to 32 bits before the high half
		// is taken: (-1)*(-1) in Q15 gives 0x7FFFFFFF, not wraparound.
		p := sat.Int32(2 * int64(a.I16(i)) * int64(b.I16(i)))
		r.SetI16(i, int16(p>>16))
	}
	return fault(u, faults.SiteALU, r)
}

// VqrdmulhqS16 rounding variant of VqdmulhqS16 (vqrdmulh.s16).
func (u *Unit) VqrdmulhqS16(a, b vec.V128) vec.V128 {
	u.rec(opVqrdmulhS16)
	var r vec.V128
	for i := 0; i < 8; i++ {
		p := sat.Int32(2*int64(a.I16(i))*int64(b.I16(i)) + (1 << 15))
		r.SetI16(i, int16(p>>16))
	}
	return fault(u, faults.SiteALU, r)
}

// VaddhnS32 add and narrow, keeping the high halves (vaddhn.i32): the
// cheap "divide by 65536 after accumulate" idiom.
func (u *Unit) VaddhnS32(a, b vec.V128) vec.V64 {
	u.rec(opVaddhnI32)
	var r vec.V64
	for i := 0; i < 4; i++ {
		r.SetI16(i, int16((a.I32(i)+b.I32(i))>>16))
	}
	return fault(u, faults.SiteALU, r)
}

// VsubhnS32 subtract and narrow high halves (vsubhn.i32).
func (u *Unit) VsubhnS32(a, b vec.V128) vec.V64 {
	u.rec(opVsubhnI32)
	var r vec.V64
	for i := 0; i < 4; i++ {
		r.SetI16(i, int16((a.I32(i)-b.I32(i))>>16))
	}
	return fault(u, faults.SiteALU, r)
}

// VpaddU8 pairwise add of two byte D registers (vpadd.u8).
func (u *Unit) VpaddU8(a, b vec.V64) vec.V64 {
	u.rec(opVpaddU8)
	var r vec.V64
	for i := 0; i < 4; i++ {
		r.SetU8(i, a.U8(2*i)+a.U8(2*i+1))
		r.SetU8(4+i, b.U8(2*i)+b.U8(2*i+1))
	}
	return fault(u, faults.SiteALU, r)
}

// VpminU8 pairwise minimum (vpmin.u8).
func (u *Unit) VpminU8(a, b vec.V64) vec.V64 {
	u.rec(opVpminU8)
	var r vec.V64
	for i := 0; i < 4; i++ {
		r.SetU8(i, min(a.U8(2*i), a.U8(2*i+1)))
		r.SetU8(4+i, min(b.U8(2*i), b.U8(2*i+1)))
	}
	return fault(u, faults.SiteALU, r)
}

// VpminF32 pairwise float minimum (vpmin.f32).
func (u *Unit) VpminF32(a, b vec.V64) vec.V64 {
	u.rec(opVpminF32)
	var r vec.V64
	r.SetF32(0, float32(math.Min(float64(a.F32(0)), float64(a.F32(1)))))
	r.SetF32(1, float32(math.Min(float64(b.F32(0)), float64(b.F32(1)))))
	return fault(u, faults.SiteALU, r)
}

// VpmaxF32 pairwise float maximum (vpmax.f32).
func (u *Unit) VpmaxF32(a, b vec.V64) vec.V64 {
	u.rec(opVpmaxF32)
	var r vec.V64
	r.SetF32(0, float32(math.Max(float64(a.F32(0)), float64(a.F32(1)))))
	r.SetF32(1, float32(math.Max(float64(b.F32(0)), float64(b.F32(1)))))
	return fault(u, faults.SiteALU, r)
}

// Vld1qDupF32 loads one float and broadcasts it to all lanes
// (vld1.32 {d0[],d1[]}).
func (u *Unit) Vld1qDupF32(p []float32) vec.V128 {
	u.rec(opVld1_32Dup)
	return vec.FromF32x4([4]float32{p[0], p[0], p[0], p[0]})
}

// Vld1qLaneS16 loads one int16 into the given lane, keeping the rest
// (vld1.16 {d0[lane]}).
func (u *Unit) Vld1qLaneS16(p []int16, v vec.V128, lane int) vec.V128 {
	u.rec(opVld1_16Lane)
	v.SetI16(lane, p[0])
	return v
}

// Vst1qLaneS16 stores one lane (vst1.16 {d0[lane]}).
func (u *Unit) Vst1qLaneS16(p []int16, v vec.V128, lane int) {
	u.rec(opVst1_16Lane)
	p[0] = v.I16(lane)
}

// VtbxU8 table lookup with fallback (vtbx.8): out-of-range indexes keep
// the destination's prior lane instead of zeroing.
func (u *Unit) VtbxU8(d, t vec.V64, idx vec.V64) vec.V64 {
	u.rec(opVtbx8)
	r := d
	for i := 0; i < 8; i++ {
		j := int(idx.U8(i))
		if j < 8 {
			r.SetU8(i, t.U8(j))
		}
	}
	return fault(u, faults.SiteALU, r)
}

// Vrev16qU8 reverses bytes within each 16-bit halfword (vrev16.8), the
// endianness-swap instruction the paper's miscellaneous category lists.
func (u *Unit) Vrev16qU8(a vec.V128) vec.V128 {
	u.rec(opVrev16_8)
	var r vec.V128
	for i := 0; i < 16; i += 2 {
		r.SetU8(i, a.U8(i+1))
		r.SetU8(i+1, a.U8(i))
	}
	return fault(u, faults.SiteALU, r)
}

// Vrev32qU8 reverses bytes within each 32-bit word (vrev32.8).
func (u *Unit) Vrev32qU8(a vec.V128) vec.V128 {
	u.rec(opVrev32_8)
	var r vec.V128
	for i := 0; i < 16; i += 4 {
		r.SetU8(i, a.U8(i+3))
		r.SetU8(i+1, a.U8(i+2))
		r.SetU8(i+2, a.U8(i+1))
		r.SetU8(i+3, a.U8(i))
	}
	return fault(u, faults.SiteALU, r)
}

// VaddqS64 adds the two 64-bit lanes (vadd.i64).
func (u *Unit) VaddqS64(a, b vec.V128) vec.V128 {
	u.rec(opVaddI64)
	var r vec.V128
	r.SetI64(0, a.I64(0)+b.I64(0))
	r.SetI64(1, a.I64(1)+b.I64(1))
	return fault(u, faults.SiteALU, r)
}

// VqaddqS64 saturating 64-bit add (vqadd.s64).
func (u *Unit) VqaddqS64(a, b vec.V128) vec.V128 {
	u.rec(opVqaddS64)
	var r vec.V128
	r.SetI64(0, sat.AddInt64(a.I64(0), b.I64(0)))
	r.SetI64(1, sat.AddInt64(a.I64(1), b.I64(1)))
	return fault(u, faults.SiteALU, r)
}

// VpadalqU8 pairwise add and accumulate long: adjacent byte pairs summed
// into u16 accumulator lanes (vpadal.u8).
func (u *Unit) VpadalqU8(acc, a vec.V128) vec.V128 {
	u.rec(opVpadalU8)
	var r vec.V128
	for i := 0; i < 8; i++ {
		r.SetU16(i, acc.U16(i)+uint16(a.U8(2*i))+uint16(a.U8(2*i+1)))
	}
	return fault(u, faults.SiteALU, r)
}
