package neon

import (
	"simdstudy/internal/faults"
	"simdstudy/internal/vec"
)

// Structured (interleaved) loads and stores. NEON's vld2/vld3/vld4 family
// deinterleaves array-of-structure data in a single instruction — the
// paper's Section II-C highlights these "load/stores between arrays of
// vectors" as a NEON capability SSE2 lacks, and they are what make NEON
// color-conversion kernels so effective (the related-work Tegra study's
// 9.5x color conversion).

// Vld2U8 loads 16 bytes of 2-way interleaved data into two D registers
// (vld2.8): out[0] gets even-indexed bytes, out[1] odd-indexed.
func (u *Unit) Vld2U8(p []uint8) [2]vec.V64 {
	u.rec(opVld2_8x16)
	p = skewed(u, faults.SiteLoad, p, 16)
	even, odd := vec.Deinterleave2U8(p)
	return [2]vec.V64{fault(u, faults.SiteLoad, even), odd}
}

// Vld3U8 loads 24 bytes of 3-way interleaved data (e.g. RGB pixels) into
// three D registers (vld3.8).
func (u *Unit) Vld3U8(p []uint8) [3]vec.V64 {
	u.rec(opVld3_8)
	p = skewed(u, faults.SiteLoad, p, 24)
	var out [3]vec.V64
	for i := 0; i < 8; i++ {
		out[0].SetU8(i, p[3*i])
		out[1].SetU8(i, p[3*i+1])
		out[2].SetU8(i, p[3*i+2])
	}
	out[0] = fault(u, faults.SiteLoad, out[0])
	return out
}

// Vld4U8 loads 32 bytes of 4-way interleaved data (e.g. RGBA pixels) into
// four D registers (vld4.8).
func (u *Unit) Vld4U8(p []uint8) [4]vec.V64 {
	u.rec(opVld4_8)
	p = skewed(u, faults.SiteLoad, p, 32)
	var out [4]vec.V64
	for i := 0; i < 8; i++ {
		out[0].SetU8(i, p[4*i])
		out[1].SetU8(i, p[4*i+1])
		out[2].SetU8(i, p[4*i+2])
		out[3].SetU8(i, p[4*i+3])
	}
	out[0] = fault(u, faults.SiteLoad, out[0])
	return out
}

// Vst2U8 stores two D registers as 2-way interleaved bytes (vst2.8).
func (u *Unit) Vst2U8(p []uint8, v [2]vec.V64) {
	u.rec(opVst2_8x16)
	p = skewed(u, faults.SiteStore, p, 16)
	v[0] = fault(u, faults.SiteStore, v[0])
	for i := 0; i < 8; i++ {
		p[2*i] = v[0].U8(i)
		p[2*i+1] = v[1].U8(i)
	}
}

// Vst3U8 stores three D registers as 3-way interleaved bytes (vst3.8).
func (u *Unit) Vst3U8(p []uint8, v [3]vec.V64) {
	u.rec(opVst3_8)
	p = skewed(u, faults.SiteStore, p, 24)
	v[0] = fault(u, faults.SiteStore, v[0])
	for i := 0; i < 8; i++ {
		p[3*i] = v[0].U8(i)
		p[3*i+1] = v[1].U8(i)
		p[3*i+2] = v[2].U8(i)
	}
}

// Vst4U8 stores four D registers as 4-way interleaved bytes (vst4.8).
func (u *Unit) Vst4U8(p []uint8, v [4]vec.V64) {
	u.rec(opVst4_8)
	p = skewed(u, faults.SiteStore, p, 32)
	v[0] = fault(u, faults.SiteStore, v[0])
	for i := 0; i < 8; i++ {
		p[4*i] = v[0].U8(i)
		p[4*i+1] = v[1].U8(i)
		p[4*i+2] = v[2].U8(i)
		p[4*i+3] = v[3].U8(i)
	}
}

// Vld2qU8 loads 32 bytes of 2-way interleaved data into two Q registers
// (vld2.8 with quad registers).
func (u *Unit) Vld2qU8(p []uint8) [2]vec.V128 {
	u.rec(opVld2_8x32)
	p = skewed(u, faults.SiteLoad, p, 32)
	var out [2]vec.V128
	for i := 0; i < 16; i++ {
		out[0].SetU8(i, p[2*i])
		out[1].SetU8(i, p[2*i+1])
	}
	out[0] = fault(u, faults.SiteLoad, out[0])
	return out
}

// Vst2qU8 stores two Q registers as 2-way interleaved bytes.
func (u *Unit) Vst2qU8(p []uint8, v [2]vec.V128) {
	u.rec(opVst2_8x32)
	p = skewed(u, faults.SiteStore, p, 32)
	v[0] = fault(u, faults.SiteStore, v[0])
	for i := 0; i < 16; i++ {
		p[2*i] = v[0].U8(i)
		p[2*i+1] = v[1].U8(i)
	}
}
