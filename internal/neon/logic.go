package neon

import (
	"simdstudy/internal/faults"
	"simdstudy/internal/vec"
)

// --- Bitwise logical ---

// VandqU8 bitwise AND (vand).
func (u *Unit) VandqU8(a, b vec.V128) vec.V128 {
	u.rec(opVand)
	return vec.And(a, b)
}

// VandqU16 bitwise AND (vand); NEON bitwise ops are type-blind.
func (u *Unit) VandqU16(a, b vec.V128) vec.V128 {
	u.rec(opVand)
	return vec.And(a, b)
}

// VandqS16 bitwise AND (vand).
func (u *Unit) VandqS16(a, b vec.V128) vec.V128 {
	u.rec(opVand)
	return vec.And(a, b)
}

// VorrqU8 bitwise OR (vorr).
func (u *Unit) VorrqU8(a, b vec.V128) vec.V128 {
	u.rec(opVorrALU)
	return vec.Or(a, b)
}

// VorrqS16 bitwise OR (vorr).
func (u *Unit) VorrqS16(a, b vec.V128) vec.V128 {
	u.rec(opVorrALU)
	return vec.Or(a, b)
}

// VeorqU8 bitwise XOR (veor).
func (u *Unit) VeorqU8(a, b vec.V128) vec.V128 {
	u.rec(opVeor)
	return vec.Xor(a, b)
}

// VmvnqU8 bitwise NOT (vmvn).
func (u *Unit) VmvnqU8(a vec.V128) vec.V128 {
	u.rec(opVmvn)
	return vec.Not(a)
}

// VbicqU8 bit clear: a & ^b (vbic).
func (u *Unit) VbicqU8(a, b vec.V128) vec.V128 {
	u.rec(opVbic)
	return vec.And(a, vec.Not(b))
}

// VornqU8 OR complement: a | ^b (vorn).
func (u *Unit) VornqU8(a, b vec.V128) vec.V128 {
	u.rec(opVorn)
	return vec.Or(a, vec.Not(b))
}

// VbslqU8 bitwise select: mask bits choose a, clear bits choose b (vbsl).
func (u *Unit) VbslqU8(mask, a, b vec.V128) vec.V128 {
	u.rec(opVbsl)
	return vec.Select(mask, a, b)
}

// VbslqS16 bitwise select on int16-typed registers (vbsl is type-blind).
func (u *Unit) VbslqS16(mask, a, b vec.V128) vec.V128 {
	u.rec(opVbsl)
	return vec.Select(mask, a, b)
}

// VbslqF32 bitwise select on float-typed registers.
func (u *Unit) VbslqF32(mask, a, b vec.V128) vec.V128 {
	u.rec(opVbsl)
	return vec.Select(mask, a, b)
}

// --- Comparisons (all produce all-ones / all-zero lane masks) ---

// VcgtqU8 compare greater-than, unsigned bytes (vcgt.u8).
func (u *Unit) VcgtqU8(a, b vec.V128) vec.V128 {
	u.rec(opVcgtU8)
	return fault(u, faults.SiteALU, vec.GtU8(a, b))
}

// VcgeqU8 compare greater-or-equal, unsigned bytes (vcge.u8).
func (u *Unit) VcgeqU8(a, b vec.V128) vec.V128 {
	u.rec(opVcgeU8)
	return fault(u, faults.SiteALU, vec.Not(vec.GtU8(b, a)))
}

// VcltqU8 compare less-than, unsigned bytes (vclt.u8).
func (u *Unit) VcltqU8(a, b vec.V128) vec.V128 {
	u.rec(opVcltU8)
	return fault(u, faults.SiteALU, vec.GtU8(b, a))
}

// VceqqU8 compare equal, bytes (vceq.i8).
func (u *Unit) VceqqU8(a, b vec.V128) vec.V128 {
	u.rec(opVceqI8)
	return fault(u, faults.SiteALU, vec.EqU8(a, b))
}

// VcgtqS16 compare greater-than, int16 (vcgt.s16).
func (u *Unit) VcgtqS16(a, b vec.V128) vec.V128 {
	u.rec(opVcgtS16)
	return fault(u, faults.SiteALU, vec.GtI16(a, b))
}

// VcgeqS16 compare greater-or-equal, int16 (vcge.s16).
func (u *Unit) VcgeqS16(a, b vec.V128) vec.V128 {
	u.rec(opVcgeS16)
	return fault(u, faults.SiteALU, vec.Not(vec.GtI16(b, a)))
}

// VcltqS16 compare less-than, int16 (vclt.s16).
func (u *Unit) VcltqS16(a, b vec.V128) vec.V128 {
	u.rec(opVcltS16)
	return fault(u, faults.SiteALU, vec.GtI16(b, a))
}

// VceqqS16 compare equal, int16 (vceq.i16).
func (u *Unit) VceqqS16(a, b vec.V128) vec.V128 {
	u.rec(opVceqI16)
	return fault(u, faults.SiteALU, vec.EqU16(a, b))
}

// VcgtqF32 compare greater-than, float (vcgt.f32).
func (u *Unit) VcgtqF32(a, b vec.V128) vec.V128 {
	u.rec(opVcgtF32)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetU32(i, vec.Mask32(a.F32(i) > b.F32(i)))
	}
	return fault(u, faults.SiteALU, r)
}

// VcgeqF32 compare greater-or-equal, float (vcge.f32).
func (u *Unit) VcgeqF32(a, b vec.V128) vec.V128 {
	u.rec(opVcgeF32)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetU32(i, vec.Mask32(a.F32(i) >= b.F32(i)))
	}
	return fault(u, faults.SiteALU, r)
}

// VcltqF32 compare less-than, float (vclt.f32).
func (u *Unit) VcltqF32(a, b vec.V128) vec.V128 {
	u.rec(opVcltF32)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetU32(i, vec.Mask32(a.F32(i) < b.F32(i)))
	}
	return fault(u, faults.SiteALU, r)
}

// VceqqF32 compare equal, float (vceq.f32).
func (u *Unit) VceqqF32(a, b vec.V128) vec.V128 {
	u.rec(opVceqF32)
	var r vec.V128
	for i := 0; i < 4; i++ {
		r.SetU32(i, vec.Mask32(a.F32(i) == b.F32(i)))
	}
	return fault(u, faults.SiteALU, r)
}

// VcagtqF32 compare absolute greater-than |a| > |b| (vacgt.f32).
func (u *Unit) VcagtqF32(a, b vec.V128) vec.V128 {
	u.rec(opVacgtF32)
	var r vec.V128
	for i := 0; i < 4; i++ {
		x, y := a.F32(i), b.F32(i)
		if x < 0 {
			x = -x
		}
		if y < 0 {
			y = -y
		}
		r.SetU32(i, vec.Mask32(x > y))
	}
	return fault(u, faults.SiteALU, r)
}

// VtstqU8 test bits: lane mask set where a&b is nonzero (vtst.8).
func (u *Unit) VtstqU8(a, b vec.V128) vec.V128 {
	u.rec(opVtst8)
	return fault(u, faults.SiteALU, vec.TestU8(a, b))
}
