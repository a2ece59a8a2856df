package sse2

import "simdstudy/internal/vec"

// V256 models a 256-bit AVX YMM register as two 128-bit halves. The paper
// notes the Core i7 (Sandy Bridge) and Core i5 (Ivy Bridge) support AVX and
// cites 1.58-1.88x improvements over SSE 4.2; the ablation benchmark uses
// these 8-wide forms to reproduce that comparison on the convert kernel.
type V256 struct {
	Lo, Hi vec.V128
}

// Loadu256Ps loads eight unaligned float32 (_mm256_loadu_ps / vmovups ymm).
func (u *Unit) Loadu256Ps(p []float32) V256 {
	u.rec(opVmovupsYmm)
	return V256{
		Lo: vec.FromF32x4([4]float32{p[0], p[1], p[2], p[3]}),
		Hi: vec.FromF32x4([4]float32{p[4], p[5], p[6], p[7]}),
	}
}

// Storeu256Si256S16 stores sixteen int16 (_mm256_storeu_si256).
func (u *Unit) Storeu256Si256S16(p []int16, v V256) {
	u.rec(opVmovdquYmm)
	lo := v.Lo.ToI16x8()
	hi := v.Hi.ToI16x8()
	copy(p[:8], lo[:])
	copy(p[8:16], hi[:])
}

// Add256Ps adds eight float lanes (_mm256_add_ps).
func (u *Unit) Add256Ps(a, b V256) V256 {
	u.rec(opVaddpsYmm)
	var r V256
	for i := 0; i < 4; i++ {
		r.Lo.SetF32(i, a.Lo.F32(i)+b.Lo.F32(i))
		r.Hi.SetF32(i, a.Hi.F32(i)+b.Hi.F32(i))
	}
	return r
}

// Mul256Ps multiplies eight float lanes (_mm256_mul_ps).
func (u *Unit) Mul256Ps(a, b V256) V256 {
	u.rec(opVmulpsYmm)
	var r V256
	for i := 0; i < 4; i++ {
		r.Lo.SetF32(i, a.Lo.F32(i)*b.Lo.F32(i))
		r.Hi.SetF32(i, a.Hi.F32(i)*b.Hi.F32(i))
	}
	return r
}

// Cvt256PsEpi32 converts eight floats to int32 with round-to-even
// (_mm256_cvtps_epi32).
func (u *Unit) Cvt256PsEpi32(a V256) V256 {
	u.rec(opVcvtps2dqYmm)
	var r V256
	for i := 0; i < 4; i++ {
		r.Lo.SetI32(i, roundToEvenSat(float64(a.Lo.F32(i))))
		r.Hi.SetI32(i, roundToEvenSat(float64(a.Hi.F32(i))))
	}
	return r
}

// Packs256Epi32 packs two V256 of int32 into one V256 of int16 with signed
// saturation, with AVX2's within-128-bit-lane semantics
// (_mm256_packs_epi32): each 128-bit lane packs independently.
func (u *Unit) Packs256Epi32(a, b V256) V256 {
	u.rec(opVpackssdwYmm)
	tmp := New(nil)
	return V256{
		Lo: tmp.PacksEpi32(a.Lo, b.Lo),
		Hi: tmp.PacksEpi32(a.Hi, b.Hi),
	}
}

// Set1256Ps broadcasts a float to all eight lanes (_mm256_set1_ps).
func (u *Unit) Set1256Ps(x float32) V256 {
	u.rec(opVbroadcastss)
	v := vec.FromF32x4([4]float32{x, x, x, x})
	return V256{Lo: v, Hi: v}
}
