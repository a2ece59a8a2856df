package neon

import (
	"math"

	"simdstudy/internal/faults"
	"simdstudy/internal/sat"
	"simdstudy/internal/vec"
)

// --- Addition ---

// VaddqF32 adds four float lanes (vadd.f32).
func (u *Unit) VaddqF32(a, b vec.V128) vec.V128 {
	u.rec(opVaddF32)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetF32(i, a.F32(i)+b.F32(i))
	}
	return fault(u, faults.SiteALU, r)
}

// VaddqS16 adds eight int16 lanes with wraparound (vadd.i16).
func (u *Unit) VaddqS16(a, b vec.V128) vec.V128 {
	u.rec(opVaddI16)
	return fault(u, faults.SiteALU, vec.AddU16(a, b))
}

// VaddqS32 adds four int32 lanes with wraparound (vadd.i32).
func (u *Unit) VaddqS32(a, b vec.V128) vec.V128 {
	u.rec(opVaddI32)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetI32(i, a.I32(i)+b.I32(i))
	}
	return fault(u, faults.SiteALU, r)
}

// VaddqU8 adds sixteen uint8 lanes with wraparound (vadd.i8).
func (u *Unit) VaddqU8(a, b vec.V128) vec.V128 {
	u.rec(opVaddI8)
	return fault(u, faults.SiteALU, vec.AddU8(a, b))
}

// VaddqU16 adds eight uint16 lanes with wraparound (vadd.i16).
func (u *Unit) VaddqU16(a, b vec.V128) vec.V128 {
	u.rec(opVaddI16)
	return fault(u, faults.SiteALU, vec.AddU16(a, b))
}

// VqaddqS16 adds with signed saturation (vqadd.s16).
func (u *Unit) VqaddqS16(a, b vec.V128) vec.V128 {
	u.rec(opVqaddS16)
	return fault(u, faults.SiteALU, vec.AddSatI16(a, b))
}

// VqaddqU8 adds with unsigned saturation (vqadd.u8).
func (u *Unit) VqaddqU8(a, b vec.V128) vec.V128 {
	u.rec(opVqaddU8)
	var r vec.V128
	for i := 0; i < 16; i++ {
		r.SetU8(i, sat.AddUint8(a.U8(i), b.U8(i)))
	}
	return fault(u, faults.SiteALU, r)
}

// VaddlU8 widens and adds: sixteen->eight uint16 from the low halves
// (vaddl.u8 q, d, d).
func (u *Unit) VaddlU8(a, b vec.V64) vec.V128 {
	u.rec(opVaddlU8)
	return fault(u, faults.SiteALU, vec.AddlU8(a, b))
}

// VaddlS16 widens and adds int16 pairs into int32 lanes (vaddl.s16).
func (u *Unit) VaddlS16(a, b vec.V64) vec.V128 {
	u.rec(opVaddlS16)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetI32(i, int32(a.I16(i))+int32(b.I16(i)))
	}
	return fault(u, faults.SiteALU, r)
}

// VaddwU8 adds a widened D register of bytes to a Q register of uint16
// (vaddw.u8).
func (u *Unit) VaddwU8(a vec.V128, b vec.V64) vec.V128 {
	u.rec(opVaddwU8)
	return fault(u, faults.SiteALU, vec.AddwU8(a, b))
}

// VhaddqU8 halving add: (a+b)>>1 without overflow (vhadd.u8).
func (u *Unit) VhaddqU8(a, b vec.V128) vec.V128 {
	u.rec(opVhaddU8)
	var r vec.V128
	for i := 0; i < 16; i++ {
		r.SetU8(i, uint8((uint16(a.U8(i))+uint16(b.U8(i)))>>1))
	}
	return fault(u, faults.SiteALU, r)
}

// VrhaddqU8 rounding halving add: (a+b+1)>>1 (vrhadd.u8).
func (u *Unit) VrhaddqU8(a, b vec.V128) vec.V128 {
	u.rec(opVrhaddU8)
	var r vec.V128
	for i := 0; i < 16; i++ {
		r.SetU8(i, uint8((uint16(a.U8(i))+uint16(b.U8(i))+1)>>1))
	}
	return fault(u, faults.SiteALU, r)
}

// VpaddlqU8 pairwise long add: adjacent byte pairs summed into uint16 lanes
// (vpaddl.u8).
func (u *Unit) VpaddlqU8(a vec.V128) vec.V128 {
	u.rec(opVpaddlU8)
	var r vec.V128
	for i := 0; i < 8; i++ {
		r.SetU16(i, uint16(a.U8(2*i))+uint16(a.U8(2*i+1)))
	}
	return fault(u, faults.SiteALU, r)
}

// VpaddlqU16 pairwise long add of uint16 lanes into uint32 (vpaddl.u16).
func (u *Unit) VpaddlqU16(a vec.V128) vec.V128 {
	u.rec(opVpaddlU16)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetU32(i, uint32(a.U16(2*i))+uint32(a.U16(2*i+1)))
	}
	return fault(u, faults.SiteALU, r)
}

// VpaddF32 pairwise add of two D registers (vpadd.f32).
func (u *Unit) VpaddF32(a, b vec.V64) vec.V64 {
	u.rec(opVpaddF32)
	var r vec.V64
	r.SetF32(0, a.F32(0)+a.F32(1))
	r.SetF32(1, b.F32(0)+b.F32(1))
	return fault(u, faults.SiteALU, r)
}

// --- Subtraction ---

// VsubqF32 subtracts four float lanes (vsub.f32).
func (u *Unit) VsubqF32(a, b vec.V128) vec.V128 {
	u.rec(opVsubF32)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetF32(i, a.F32(i)-b.F32(i))
	}
	return fault(u, faults.SiteALU, r)
}

// VsubqS16 subtracts eight int16 lanes with wraparound (vsub.i16).
func (u *Unit) VsubqS16(a, b vec.V128) vec.V128 {
	u.rec(opVsubI16)
	return fault(u, faults.SiteALU, vec.SubU16(a, b))
}

// VqsubqS16 subtracts with signed saturation (vqsub.s16).
func (u *Unit) VqsubqS16(a, b vec.V128) vec.V128 {
	u.rec(opVqsubS16)
	return fault(u, faults.SiteALU, vec.SubSatI16(a, b))
}

// VqsubqU8 subtracts with unsigned saturation (vqsub.u8).
func (u *Unit) VqsubqU8(a, b vec.V128) vec.V128 {
	u.rec(opVqsubU8)
	var r vec.V128
	for i := 0; i < 16; i++ {
		r.SetU8(i, sat.SubUint8(a.U8(i), b.U8(i)))
	}
	return fault(u, faults.SiteALU, r)
}

// VsublU8 widening subtract of byte D registers into uint16 lanes,
// reinterpreted signed (vsubl.u8). The Sobel horizontal pass uses this to
// form pixel differences without overflow.
func (u *Unit) VsublU8(a, b vec.V64) vec.V128 {
	u.rec(opVsublU8)
	return fault(u, faults.SiteALU, vec.SublU8(a, b))
}

// VsublS16 widening subtract of int16 D registers into int32 lanes.
func (u *Unit) VsublS16(a, b vec.V64) vec.V128 {
	u.rec(opVsublS16)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetI32(i, int32(a.I16(i))-int32(b.I16(i)))
	}
	return fault(u, faults.SiteALU, r)
}

// --- Multiplication ---

// VmulqF32 multiplies four float lanes (vmul.f32).
func (u *Unit) VmulqF32(a, b vec.V128) vec.V128 {
	u.rec(opVmulF32)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetF32(i, a.F32(i)*b.F32(i))
	}
	return fault(u, faults.SiteALU, r)
}

// VmulqS16 multiplies eight int16 lanes, low half kept (vmul.i16).
func (u *Unit) VmulqS16(a, b vec.V128) vec.V128 {
	u.rec(opVmulI16)
	return fault(u, faults.SiteALU, vec.MulLoU16(a, b))
}

// VmulqNF32 multiplies by a scalar (vmul.f32 q, q, d[0]).
func (u *Unit) VmulqNF32(a vec.V128, s float32) vec.V128 {
	u.rec(opVmulF32N)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetF32(i, a.F32(i)*s)
	}
	return fault(u, faults.SiteALU, r)
}

// VmulqNS16 multiplies eight int16 lanes by a scalar.
func (u *Unit) VmulqNS16(a vec.V128, s int16) vec.V128 {
	u.rec(opVmulI16N)
	return fault(u, faults.SiteALU, vec.MulLoU16(a, vec.Splat16(uint16(s))))
}

// VmulqNU16 multiplies eight uint16 lanes by a scalar.
func (u *Unit) VmulqNU16(a vec.V128, s uint16) vec.V128 {
	u.rec(opVmulI16N)
	return fault(u, faults.SiteALU, vec.MulLoU16(a, vec.Splat16(s)))
}

// VmlaqF32 fused multiply-accumulate a + b*c (vmla.f32).
func (u *Unit) VmlaqF32(a, b, c vec.V128) vec.V128 {
	u.rec(opVmlaF32)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetF32(i, a.F32(i)+b.F32(i)*c.F32(i))
	}
	return fault(u, faults.SiteALU, r)
}

// VmlaqNF32 multiply-accumulate with scalar: a + b*s (vmla.f32 scalar).
func (u *Unit) VmlaqNF32(a, b vec.V128, s float32) vec.V128 {
	u.rec(opVmlaF32N)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetF32(i, a.F32(i)+b.F32(i)*s)
	}
	return fault(u, faults.SiteALU, r)
}

// VmlaqS16 multiply-accumulate a + b*c on int16 lanes (vmla.i16).
func (u *Unit) VmlaqS16(a, b, c vec.V128) vec.V128 {
	u.rec(opVmlaI16)
	return fault(u, faults.SiteALU, vec.AddU16(a, vec.MulLoU16(b, c)))
}

// VmlaqNU16 multiply-accumulate with scalar on uint16 lanes. The fixed
// point Gaussian row filter accumulates weighted taps with this.
func (u *Unit) VmlaqNU16(a, b vec.V128, s uint16) vec.V128 {
	u.rec(opVmlaI16N)
	return fault(u, faults.SiteALU, vec.AddU16(a, vec.MulLoU16(b, vec.Splat16(s))))
}

// VmlaqNS16 multiply-accumulate with scalar on int16 lanes.
func (u *Unit) VmlaqNS16(a, b vec.V128, s int16) vec.V128 {
	u.rec(opVmlaI16N)
	return fault(u, faults.SiteALU, vec.AddU16(a, vec.MulLoU16(b, vec.Splat16(uint16(s)))))
}

// VmlalU8 widening multiply-accumulate: acc + a*b into uint16 lanes
// (vmlal.u8).
func (u *Unit) VmlalU8(acc vec.V128, a, b vec.V64) vec.V128 {
	u.rec(opVmlalU8)
	return fault(u, faults.SiteALU, vec.MlalU8(acc, a, b))
}

// VmlalS16 widening multiply-accumulate into int32 lanes (vmlal.s16).
func (u *Unit) VmlalS16(acc vec.V128, a, b vec.V64) vec.V128 {
	u.rec(opVmlalS16)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetI32(i, acc.I32(i)+int32(a.I16(i))*int32(b.I16(i)))
	}
	return fault(u, faults.SiteALU, r)
}

// VmullU8 widening multiply of byte D registers into uint16 lanes
// (vmull.u8).
func (u *Unit) VmullU8(a, b vec.V64) vec.V128 {
	u.rec(opVmullU8)
	return fault(u, faults.SiteALU, vec.MlalU8(vec.V128{}, a, b))
}

// VmullS16 widening multiply of int16 D registers into int32 lanes
// (vmull.s16).
func (u *Unit) VmullS16(a, b vec.V64) vec.V128 {
	u.rec(opVmullS16)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetI32(i, int32(a.I16(i))*int32(b.I16(i)))
	}
	return fault(u, faults.SiteALU, r)
}

// VmlsqF32 multiply-subtract a - b*c (vmls.f32).
func (u *Unit) VmlsqF32(a, b, c vec.V128) vec.V128 {
	u.rec(opVmlsF32)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetF32(i, a.F32(i)-b.F32(i)*c.F32(i))
	}
	return fault(u, faults.SiteALU, r)
}

// --- Absolute value / difference ---

// VabsqS16 lane-wise absolute value with wraparound at MinInt16 (vabs.s16).
func (u *Unit) VabsqS16(a vec.V128) vec.V128 {
	u.rec(opVabsS16)
	return fault(u, faults.SiteALU, vec.AbsI16(a)) // MinInt16 wraps, matching hardware
}

// VqabsqS16 saturating absolute value (vqabs.s16).
func (u *Unit) VqabsqS16(a vec.V128) vec.V128 {
	u.rec(opVqabsS16)
	return fault(u, faults.SiteALU, vec.AbsSatI16(a))
}

// VabsqF32 lane-wise float absolute value (vabs.f32).
func (u *Unit) VabsqF32(a vec.V128) vec.V128 {
	u.rec(opVabsF32)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetF32(i, float32(math.Abs(float64(a.F32(i)))))
	}
	return fault(u, faults.SiteALU, r)
}

// VabdqU8 absolute difference |a-b| (vabd.u8).
func (u *Unit) VabdqU8(a, b vec.V128) vec.V128 {
	u.rec(opVabdU8)
	return fault(u, faults.SiteALU, vec.AbsDiffU8(a, b))
}

// VabaqU8 absolute difference and accumulate: acc + |a-b| (vaba.u8).
func (u *Unit) VabaqU8(acc, a, b vec.V128) vec.V128 {
	u.rec(opVabaU8)
	return fault(u, faults.SiteALU, vec.AddU8(acc, vec.AbsDiffU8(a, b)))
}

// --- Min / Max ---

// VminqU8 lane-wise unsigned byte minimum (vmin.u8). The truncation
// threshold benchmark reduces to exactly this instruction.
func (u *Unit) VminqU8(a, b vec.V128) vec.V128 {
	u.rec(opVminU8)
	return fault(u, faults.SiteALU, vec.MinU8(a, b))
}

// VmaxqU8 lane-wise unsigned byte maximum (vmax.u8).
func (u *Unit) VmaxqU8(a, b vec.V128) vec.V128 {
	u.rec(opVmaxU8)
	return fault(u, faults.SiteALU, vec.MaxU8(a, b))
}

// VminqS16 lane-wise int16 minimum (vmin.s16).
func (u *Unit) VminqS16(a, b vec.V128) vec.V128 {
	u.rec(opVminS16)
	return fault(u, faults.SiteALU, vec.MinI16(a, b))
}

// VmaxqS16 lane-wise int16 maximum (vmax.s16).
func (u *Unit) VmaxqS16(a, b vec.V128) vec.V128 {
	u.rec(opVmaxS16)
	return fault(u, faults.SiteALU, vec.MaxI16(a, b))
}

// VminqF32 lane-wise float minimum (vmin.f32).
func (u *Unit) VminqF32(a, b vec.V128) vec.V128 {
	u.rec(opVminF32)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetF32(i, float32(math.Min(float64(a.F32(i)), float64(b.F32(i)))))
	}
	return fault(u, faults.SiteALU, r)
}

// VmaxqF32 lane-wise float maximum (vmax.f32).
func (u *Unit) VmaxqF32(a, b vec.V128) vec.V128 {
	u.rec(opVmaxF32)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetF32(i, float32(math.Max(float64(a.F32(i)), float64(b.F32(i)))))
	}
	return fault(u, faults.SiteALU, r)
}

// VpmaxU8 pairwise maximum across two D registers (vpmax.u8).
func (u *Unit) VpmaxU8(a, b vec.V64) vec.V64 {
	u.rec(opVpmaxU8)
	var r vec.V64
	for i := 0; i < 4; i++ {
		r.SetU8(i, max(a.U8(2*i), a.U8(2*i+1)))
		r.SetU8(4+i, max(b.U8(2*i), b.U8(2*i+1)))
	}
	return fault(u, faults.SiteALU, r)
}

// --- Reciprocal estimates ---

// VrecpeqF32 reciprocal estimate (vrecpe.f32), ~8 bits of precision like
// hardware; refined with VrecpsqF32 Newton steps.
func (u *Unit) VrecpeqF32(a vec.V128) vec.V128 {
	u.rec(opVrecpeF32)
	var r vec.V128
	for i := 0; i < 4; i++ {
		est := 1 / a.F32(i)
		// Quantize to ~8 significant bits to model the estimate table.
		r.SetF32(i, quantizeEstimate(est))
	}
	return fault(u, faults.SiteALU, r)
}

// VrecpsqF32 reciprocal refinement step: 2 - a*b (vrecps.f32).
func (u *Unit) VrecpsqF32(a, b vec.V128) vec.V128 {
	u.rec(opVrecpsF32)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetF32(i, 2-a.F32(i)*b.F32(i))
	}
	return fault(u, faults.SiteALU, r)
}

// VrsqrteqF32 reciprocal square root estimate (vrsqrte.f32).
func (u *Unit) VrsqrteqF32(a vec.V128) vec.V128 {
	u.rec(opVrsqrteF32)
	var r vec.V128
	for i := 0; i < 4; i++ {
		est := float32(1 / math.Sqrt(float64(a.F32(i))))
		r.SetF32(i, quantizeEstimate(est))
	}
	return fault(u, faults.SiteALU, r)
}

// VrsqrtsqF32 reciprocal sqrt refinement step: (3 - a*b)/2 (vrsqrts.f32).
func (u *Unit) VrsqrtsqF32(a, b vec.V128) vec.V128 {
	u.rec(opVrsqrtsF32)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetF32(i, (3-a.F32(i)*b.F32(i))/2)
	}
	return fault(u, faults.SiteALU, r)
}

// quantizeEstimate truncates a float32 mantissa to 8 bits, modeling the
// lookup-table precision of hardware estimate instructions.
func quantizeEstimate(v float32) float32 {
	bits := math.Float32bits(v)
	bits &= 0xFFFF8000 // keep sign, exponent, top 8 mantissa bits
	return math.Float32frombits(bits)
}
