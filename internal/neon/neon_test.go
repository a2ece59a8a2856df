package neon

import (
	"math"
	"testing"
	"testing/quick"

	"simdstudy/internal/sat"
	"simdstudy/internal/trace"
	"simdstudy/internal/vec"
)

func TestLoadStoreRoundTrips(t *testing.T) {
	u := New(nil)

	f := []float32{1.5, -2, 3.25, 4, 5, 6, 7, 8}
	q := u.Vld1qF32(f)
	out := make([]float32, 4)
	u.Vst1qF32(out, q)
	for i := range out {
		if out[i] != f[i] {
			t.Fatalf("f32 lane %d: %v", i, out[i])
		}
	}
	d := u.Vld1F32(f[2:])
	if d.F32(0) != 3.25 || d.F32(1) != 4 {
		t.Fatalf("vld1 f32 d: %v %v", d.F32(0), d.F32(1))
	}

	b := []uint8{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	qb := u.Vld1qU8(b)
	outB := make([]uint8, 16)
	u.Vst1qU8(outB, qb)
	for i := range outB {
		if outB[i] != b[i] {
			t.Fatalf("u8 lane %d", i)
		}
	}
	db := u.Vld1U8(b[3:])
	outD := make([]uint8, 8)
	u.Vst1U8(outD, db)
	for i := range outD {
		if outD[i] != b[3+i] {
			t.Fatalf("u8 d lane %d", i)
		}
	}

	s := []int16{-100, 200, -300, 400, -500, 600, -700, 800}
	qs := u.Vld1qS16(s)
	outS := make([]int16, 8)
	u.Vst1qS16(outS, qs)
	for i := range outS {
		if outS[i] != s[i] {
			t.Fatalf("s16 lane %d", i)
		}
	}

	i32 := []int32{-1, 2, -3, 4}
	q32 := u.Vld1qS32(i32)
	out32 := make([]int32, 4)
	u.Vst1qS32(out32, q32)
	for i := range out32 {
		if out32[i] != i32[i] {
			t.Fatalf("s32 lane %d", i)
		}
	}

	u16s := []uint16{1, 2, 3, 4, 5, 6, 7, 65535}
	q16 := u.Vld1qU16(u16s)
	out16 := make([]uint16, 8)
	u.Vst1qU16(out16, q16)
	for i := range out16 {
		if out16[i] != u16s[i] {
			t.Fatalf("u16 lane %d", i)
		}
	}
}

// TestPaperConvertSequence replays the paper's hand-optimized NEON loop body
// for one iteration and checks both the values and the instruction count:
// 8 NEON instructions per 8 pixels (Section V).
func TestPaperConvertSequence(t *testing.T) {
	var tr trace.Counter
	u := New(&tr)
	src := []float32{0.4, 0.6, -0.5, 1e9, -1e9, 32767.7, -32768.9, 123.4}
	dst := make([]int16, 8)

	src128 := u.Vld1qF32(src)
	srcInt128 := u.VcvtqS32F32(src128)
	src0Int64 := u.VqmovnS32(srcInt128)
	src128 = u.Vld1qF32(src[4:])
	srcInt128 = u.VcvtqS32F32(src128)
	src1Int64 := u.VqmovnS32(srcInt128)
	resInt128 := u.VcombineS16(src0Int64, src1Int64)
	u.Vst1qS16(dst, resInt128)

	// vcvt truncates toward zero, then vqmovn saturates to int16.
	want := []int16{0, 0, 0, 32767, -32768, 32767, -32768, 123}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("pixel %d: got %d want %d", i, dst[i], want[i])
		}
	}

	// Section V: 8 instructions for the intrinsic body (vcombine lowers to
	// a register move, still one instruction).
	u.Flush()
	if got := tr.Total(); got != 8 {
		t.Errorf("instruction count: got %d want 8", got)
	}
	if tr.Count(trace.SIMDLoad) != 2 || tr.Count(trace.SIMDStore) != 1 {
		t.Errorf("memory op counts: %d loads %d stores",
			tr.Count(trace.SIMDLoad), tr.Count(trace.SIMDStore))
	}
	if tr.Count(trace.SIMDCvt) != 4 {
		t.Errorf("cvt count: %d", tr.Count(trace.SIMDCvt))
	}
	if tr.BytesLoaded() != 32 || tr.BytesStored() != 16 {
		t.Errorf("bytes: %d/%d", tr.BytesLoaded(), tr.BytesStored())
	}
}

func TestOverheadAccounting(t *testing.T) {
	var tr trace.Counter
	u := New(&tr)
	u.Overhead(3, 2, 1)
	u.Flush()
	if tr.Count(trace.AddrCalc) != 3 || tr.Count(trace.Branch) != 2 || tr.Count(trace.Move) != 1 {
		t.Fatalf("overhead counts wrong: %v", tr.Classes())
	}
	// Section V totals: 8 intrinsic ops + 6 overhead = 14 per 8 pixels.
	u2 := New(&tr)
	_ = u2
}

func TestDup(t *testing.T) {
	u := New(nil)
	if v := u.VdupqNS16(-7); v.ToI16x8() != [8]int16{-7, -7, -7, -7, -7, -7, -7, -7} {
		t.Error("VdupqNS16")
	}
	if v := u.VdupqNU8(9); v.U8(0) != 9 || v.U8(15) != 9 {
		t.Error("VdupqNU8")
	}
	if v := u.VdupqNF32(1.5); v.ToF32x4() != [4]float32{1.5, 1.5, 1.5, 1.5} {
		t.Error("VdupqNF32")
	}
	if v := u.VdupqNS32(-3); v.ToI32x4() != [4]int32{-3, -3, -3, -3} {
		t.Error("VdupqNS32")
	}
	if v := u.VdupqNU32(7); v.ToU32x4() != [4]uint32{7, 7, 7, 7} {
		t.Error("VdupqNU32")
	}
	if v := u.VdupqNU16(513); v.ToU16x8() != [8]uint16{513, 513, 513, 513, 513, 513, 513, 513} {
		t.Error("VdupqNU16")
	}
	if v := u.VdupNU8(4); v.ToU8x8() != [8]uint8{4, 4, 4, 4, 4, 4, 4, 4} {
		t.Error("VdupNU8")
	}
	if v := u.VdupNS16(-2); v.ToI16x4() != [4]int16{-2, -2, -2, -2} {
		t.Error("VdupNS16")
	}
	if v := u.VmovqNF32(2.5); v.F32(3) != 2.5 {
		t.Error("VmovqNF32")
	}
}

func TestArithmeticBasics(t *testing.T) {
	u := New(nil)
	a := vec.FromI16x8([8]int16{1, 2, 3, 4, 5, 6, 7, 8})
	b := vec.FromI16x8([8]int16{10, 20, 30, 40, 50, 60, 70, 80})
	if u.VaddqS16(a, b).ToI16x8() != [8]int16{11, 22, 33, 44, 55, 66, 77, 88} {
		t.Error("VaddqS16")
	}
	if u.VsubqS16(b, a).ToI16x8() != [8]int16{9, 18, 27, 36, 45, 54, 63, 72} {
		t.Error("VsubqS16")
	}
	if u.VmulqS16(a, a).ToI16x8() != [8]int16{1, 4, 9, 16, 25, 36, 49, 64} {
		t.Error("VmulqS16")
	}
	// Wraparound (non-saturating).
	big := vec.FromI16x8([8]int16{32767, 0, 0, 0, 0, 0, 0, 0})
	one := vec.FromI16x8([8]int16{1, 0, 0, 0, 0, 0, 0, 0})
	if u.VaddqS16(big, one).I16(0) != -32768 {
		t.Error("VaddqS16 should wrap")
	}
	// Saturating.
	if u.VqaddqS16(big, one).I16(0) != 32767 {
		t.Error("VqaddqS16 should saturate")
	}
	neg := vec.FromI16x8([8]int16{-32768, 0, 0, 0, 0, 0, 0, 0})
	if u.VqsubqS16(neg, one).I16(0) != -32768 {
		t.Error("VqsubqS16 should saturate")
	}

	fa := vec.FromF32x4([4]float32{1, 2, 3, 4})
	fb := vec.FromF32x4([4]float32{0.5, 0.25, -1, 2})
	if u.VaddqF32(fa, fb).ToF32x4() != [4]float32{1.5, 2.25, 2, 6} {
		t.Error("VaddqF32")
	}
	if u.VsubqF32(fa, fb).ToF32x4() != [4]float32{0.5, 1.75, 4, 2} {
		t.Error("VsubqF32")
	}
	if u.VmulqF32(fa, fb).ToF32x4() != [4]float32{0.5, 0.5, -3, 8} {
		t.Error("VmulqF32")
	}
	if u.VmlaqF32(fa, fa, fb).ToF32x4() != [4]float32{1.5, 2.5, 0, 12} {
		t.Error("VmlaqF32")
	}
	if u.VmlsqF32(fa, fa, fb).ToF32x4() != [4]float32{0.5, 1.5, 6, -4} {
		t.Error("VmlsqF32")
	}
	if u.VmulqNF32(fa, 2).ToF32x4() != [4]float32{2, 4, 6, 8} {
		t.Error("VmulqNF32")
	}
	if u.VmlaqNF32(fa, fb, 4).ToF32x4() != [4]float32{3, 3, -1, 12} {
		t.Error("VmlaqNF32")
	}
	if u.VmulqNS16(a, 3).ToI16x8() != [8]int16{3, 6, 9, 12, 15, 18, 21, 24} {
		t.Error("VmulqNS16")
	}
	if u.VmlaqNS16(a, a, 2).ToI16x8() != [8]int16{3, 6, 9, 12, 15, 18, 21, 24} {
		t.Error("VmlaqNS16")
	}
	if u.VmlaqS16(a, a, b).I16(1) != 42 {
		t.Error("VmlaqS16")
	}
	u16a := vec.FromU16x8([8]uint16{1, 2, 3, 4, 5, 6, 7, 8})
	if u.VmulqNU16(u16a, 5).ToU16x8() != [8]uint16{5, 10, 15, 20, 25, 30, 35, 40} {
		t.Error("VmulqNU16")
	}
	if u.VmlaqNU16(u16a, u16a, 2).ToU16x8() != [8]uint16{3, 6, 9, 12, 15, 18, 21, 24} {
		t.Error("VmlaqNU16")
	}
	if u.VaddqU16(u16a, u16a).U16(7) != 16 {
		t.Error("VaddqU16")
	}
	if u.VaddqU8(u.VdupqNU8(200), u.VdupqNU8(100)).U8(0) != 44 {
		t.Error("VaddqU8 should wrap")
	}
	if u.VqaddqU8(u.VdupqNU8(200), u.VdupqNU8(100)).U8(0) != 255 {
		t.Error("VqaddqU8 should saturate")
	}
	if u.VqsubqU8(u.VdupqNU8(10), u.VdupqNU8(20)).U8(0) != 0 {
		t.Error("VqsubqU8 should floor")
	}
	if u.VaddqS32(vec.FromI32x4([4]int32{1, 2, 3, 4}), vec.FromI32x4([4]int32{10, 20, 30, 40})).ToI32x4() != [4]int32{11, 22, 33, 44} {
		t.Error("VaddqS32")
	}
}

func TestWideningArithmetic(t *testing.T) {
	u := New(nil)
	a := vec.FromU8x8([8]uint8{255, 1, 2, 3, 4, 5, 6, 7})
	b := vec.FromU8x8([8]uint8{255, 10, 20, 30, 40, 50, 60, 70})
	if u.VaddlU8(a, b).ToU16x8() != [8]uint16{510, 11, 22, 33, 44, 55, 66, 77} {
		t.Error("VaddlU8")
	}
	if u.VsublU8(a, b).ToI16x8() != [8]int16{0, -9, -18, -27, -36, -45, -54, -63} {
		t.Error("VsublU8")
	}
	if u.VmullU8(a, b).U16(0) != 255*255 {
		t.Error("VmullU8")
	}
	acc := vec.FromU16x8([8]uint16{1, 1, 1, 1, 1, 1, 1, 1})
	if u.VmlalU8(acc, a, b).U16(1) != 11 {
		t.Error("VmlalU8")
	}
	wide := vec.FromU16x8([8]uint16{100, 100, 100, 100, 100, 100, 100, 100})
	if u.VaddwU8(wide, a).U16(0) != 355 {
		t.Error("VaddwU8")
	}
	s16a := vec.FromI16x4([4]int16{-100, 200, -300, 32767})
	s16b := vec.FromI16x4([4]int16{100, -200, 300, 32767})
	if u.VaddlS16(s16a, s16b).ToI32x4() != [4]int32{0, 0, 0, 65534} {
		t.Error("VaddlS16")
	}
	if u.VsublS16(s16a, s16b).ToI32x4() != [4]int32{-200, 400, -600, 0} {
		t.Error("VsublS16")
	}
	if u.VmullS16(s16a, s16b).I32(3) != 32767*32767 {
		t.Error("VmullS16")
	}
	acc32 := vec.FromI32x4([4]int32{5, 5, 5, 5})
	if u.VmlalS16(acc32, s16a, s16b).I32(0) != 5-10000 {
		t.Error("VmlalS16")
	}
}

func TestHalvingAndPairwise(t *testing.T) {
	u := New(nil)
	a := u.VdupqNU8(201)
	b := u.VdupqNU8(100)
	if u.VhaddqU8(a, b).U8(0) != 150 {
		t.Error("VhaddqU8")
	}
	if u.VrhaddqU8(a, b).U8(0) != 151 {
		t.Error("VrhaddqU8")
	}
	bytes := vec.FromU8x16([16]uint8{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	if u.VpaddlqU8(bytes).ToU16x8() != [8]uint16{3, 7, 11, 15, 19, 23, 27, 31} {
		t.Error("VpaddlqU8")
	}
	w := vec.FromU16x8([8]uint16{1, 2, 3, 4, 5, 6, 7, 8})
	if u.VpaddlqU16(w).ToU32x4() != [4]uint32{3, 7, 11, 15} {
		t.Error("VpaddlqU16")
	}
	fa := vec.FromF32x2([2]float32{1, 2})
	fb := vec.FromF32x2([2]float32{3, 4})
	p := u.VpaddF32(fa, fb)
	if p.F32(0) != 3 || p.F32(1) != 7 {
		t.Error("VpaddF32")
	}
	da := vec.FromU8x8([8]uint8{1, 9, 2, 8, 3, 7, 4, 6})
	db := vec.FromU8x8([8]uint8{10, 20, 30, 5, 1, 2, 3, 99})
	pm := u.VpmaxU8(da, db)
	if pm.ToU8x8() != [8]uint8{9, 8, 7, 6, 20, 30, 2, 99} {
		t.Errorf("VpmaxU8: %v", pm.ToU8x8())
	}
}

func TestAbsAndDiff(t *testing.T) {
	u := New(nil)
	a := vec.FromI16x8([8]int16{-5, 5, -32768, 32767, 0, -1, 100, -100})
	abs := u.VabsqS16(a)
	if abs.I16(0) != 5 || abs.I16(2) != -32768 { // wraps like hardware
		t.Errorf("VabsqS16: %d %d", abs.I16(0), abs.I16(2))
	}
	qabs := u.VqabsqS16(a)
	if qabs.I16(2) != 32767 {
		t.Errorf("VqabsqS16: %d", qabs.I16(2))
	}
	f := vec.FromF32x4([4]float32{-1.5, 2.5, -0, 3})
	if u.VabsqF32(f).ToF32x4() != [4]float32{1.5, 2.5, 0, 3} {
		t.Error("VabsqF32")
	}
	x := u.VdupqNU8(10)
	y := u.VdupqNU8(250)
	if u.VabdqU8(x, y).U8(0) != 240 {
		t.Error("VabdqU8")
	}
	acc := u.VdupqNU8(5)
	if u.VabaqU8(acc, x, y).U8(0) != 245 {
		t.Error("VabaqU8")
	}
}

func TestMinMax(t *testing.T) {
	u := New(nil)
	a := vec.FromU8x16([16]uint8{0, 255, 100, 50, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	b := u.VdupqNU8(100)
	mn := u.VminqU8(a, b)
	if mn.U8(0) != 0 || mn.U8(1) != 100 || mn.U8(2) != 100 || mn.U8(3) != 50 {
		t.Error("VminqU8")
	}
	mx := u.VmaxqU8(a, b)
	if mx.U8(0) != 100 || mx.U8(1) != 255 {
		t.Error("VmaxqU8")
	}
	sa := vec.FromI16x8([8]int16{-5, 5, 0, 7, -7, 3, -3, 1})
	sb := u.VdupqNS16(0)
	if u.VminqS16(sa, sb).ToI16x8() != [8]int16{-5, 0, 0, 0, -7, 0, -3, 0} {
		t.Error("VminqS16")
	}
	if u.VmaxqS16(sa, sb).ToI16x8() != [8]int16{0, 5, 0, 7, 0, 3, 0, 1} {
		t.Error("VmaxqS16")
	}
	fa := vec.FromF32x4([4]float32{1, -2, 3, -4})
	fb := vec.FromF32x4([4]float32{-1, 2, -3, 4})
	if u.VminqF32(fa, fb).ToF32x4() != [4]float32{-1, -2, -3, -4} {
		t.Error("VminqF32")
	}
	if u.VmaxqF32(fa, fb).ToF32x4() != [4]float32{1, 2, 3, 4} {
		t.Error("VmaxqF32")
	}
}

func TestLogicAndSelect(t *testing.T) {
	u := New(nil)
	a := u.VdupqNU8(0xF0)
	b := u.VdupqNU8(0x0F)
	if u.VandqU8(a, b) != vec.Zero() {
		t.Error("VandqU8")
	}
	if u.VorrqU8(a, b) != vec.Ones() {
		t.Error("VorrqU8")
	}
	if u.VeorqU8(a, a) != vec.Zero() {
		t.Error("VeorqU8")
	}
	if u.VmvnqU8(a).U8(0) != 0x0F {
		t.Error("VmvnqU8")
	}
	if u.VbicqU8(a, a) != vec.Zero() {
		t.Error("VbicqU8")
	}
	if u.VornqU8(a, b).U8(0) != 0xF0 {
		t.Error("VornqU8")
	}
	mask := u.VdupqNU8(0xFF)
	if u.VbslqU8(mask, a, b) != a {
		t.Error("VbslqU8 ones mask")
	}
	if u.VbslqU8(vec.Zero(), a, b) != b {
		t.Error("VbslqU8 zero mask")
	}
	if u.VandqS16(a, b) != vec.Zero() || u.VandqU16(a, b) != vec.Zero() {
		t.Error("typed vand aliases")
	}
	if u.VorrqS16(a, b) != vec.Ones() {
		t.Error("VorrqS16")
	}
	if u.VbslqS16(mask, a, b) != a || u.VbslqF32(mask, a, b) != a {
		t.Error("typed vbsl aliases")
	}
}

func TestCompares(t *testing.T) {
	u := New(nil)
	a := vec.FromU8x16([16]uint8{5, 10, 15, 20, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	th := u.VdupqNU8(10)
	gt := u.VcgtqU8(a, th)
	if gt.U8(0) != 0 || gt.U8(1) != 0 || gt.U8(2) != 0xFF {
		t.Error("VcgtqU8")
	}
	ge := u.VcgeqU8(a, th)
	if ge.U8(1) != 0xFF || ge.U8(0) != 0 {
		t.Error("VcgeqU8")
	}
	lt := u.VcltqU8(a, th)
	if lt.U8(0) != 0xFF || lt.U8(1) != 0 {
		t.Error("VcltqU8")
	}
	eq := u.VceqqU8(a, th)
	if eq.U8(1) != 0xFF || eq.U8(2) != 0 {
		t.Error("VceqqU8")
	}

	s := vec.FromI16x8([8]int16{-10, 0, 10, 20, -20, 5, -5, 15})
	z := u.VdupqNS16(0)
	if u.VcgtqS16(s, z).U16(0) != 0 || u.VcgtqS16(s, z).U16(2) != 0xFFFF {
		t.Error("VcgtqS16")
	}
	if u.VcgeqS16(s, z).U16(1) != 0xFFFF {
		t.Error("VcgeqS16")
	}
	if u.VcltqS16(s, z).U16(0) != 0xFFFF {
		t.Error("VcltqS16")
	}
	if u.VceqqS16(s, z).U16(1) != 0xFFFF || u.VceqqS16(s, z).U16(0) != 0 {
		t.Error("VceqqS16")
	}

	f := vec.FromF32x4([4]float32{-1, 0, 1, 2})
	fz := u.VdupqNF32(0)
	if u.VcgtqF32(f, fz).U32(2) != 0xFFFFFFFF || u.VcgtqF32(f, fz).U32(0) != 0 {
		t.Error("VcgtqF32")
	}
	if u.VcgeqF32(f, fz).U32(1) != 0xFFFFFFFF {
		t.Error("VcgeqF32")
	}
	if u.VcltqF32(f, fz).U32(0) != 0xFFFFFFFF {
		t.Error("VcltqF32")
	}
	if u.VceqqF32(f, fz).U32(1) != 0xFFFFFFFF {
		t.Error("VceqqF32")
	}
	fabs := vec.FromF32x4([4]float32{-5, 1, -1, 0})
	if u.VcagtqF32(fabs, u.VdupqNF32(2)).U32(0) != 0xFFFFFFFF {
		t.Error("VcagtqF32")
	}
	if u.VcagtqF32(fabs, u.VdupqNF32(2)).U32(1) != 0 {
		t.Error("VcagtqF32 lane1")
	}
	bits := u.VdupqNU8(0x01)
	if u.VtstqU8(bits, u.VdupqNU8(0x03)).U8(0) != 0xFF {
		t.Error("VtstqU8 set")
	}
	if u.VtstqU8(bits, u.VdupqNU8(0x02)).U8(0) != 0 {
		t.Error("VtstqU8 clear")
	}
}

func TestConversions(t *testing.T) {
	u := New(nil)
	f := vec.FromF32x4([4]float32{1.9, -1.9, 2.5e9, -2.5e9})
	s := u.VcvtqS32F32(f)
	if s.ToI32x4() != [4]int32{1, -1, math.MaxInt32, math.MinInt32} {
		t.Errorf("VcvtqS32F32: %v", s.ToI32x4())
	}
	back := u.VcvtqF32S32(vec.FromI32x4([4]int32{1, -1, 100, -100}))
	if back.ToF32x4() != [4]float32{1, -1, 100, -100} {
		t.Error("VcvtqF32S32")
	}
	uu := u.VcvtqU32F32(vec.FromF32x4([4]float32{-1, 2.7, 5e9, float32(math.NaN())}))
	if uu.U32(0) != 0 || uu.U32(1) != 2 || uu.U32(2) != 0xFFFFFFFF || uu.U32(3) != 0 {
		t.Errorf("VcvtqU32F32: %v", uu.ToU32x4())
	}
	fu := u.VcvtqF32U32(vec.FromU32x4([4]uint32{0, 1, 1000, 4000000000}))
	if fu.F32(3) != 4e9 {
		t.Error("VcvtqF32U32")
	}
	fx := u.VcvtqNS32F32(vec.FromF32x4([4]float32{1.5, -1.5, 0.25, 0}), 8)
	if fx.ToI32x4() != [4]int32{384, -384, 64, 0} {
		t.Errorf("VcvtqNS32F32: %v", fx.ToI32x4())
	}
}

func TestNarrowWiden(t *testing.T) {
	u := New(nil)
	w := vec.FromI32x4([4]int32{100000, -100000, 1234, -1234})
	n := u.VqmovnS32(w)
	if n.ToI16x4() != [4]int16{32767, -32768, 1234, -1234} {
		t.Errorf("VqmovnS32: %v", n.ToI16x4())
	}
	s16 := vec.FromI16x8([8]int16{300, -300, 100, -100, 127, -128, 128, -129})
	n8 := u.VqmovnS16(s16)
	if n8.ToI8x8() != [8]int8{127, -128, 100, -100, 127, -128, 127, -128} {
		t.Errorf("VqmovnS16: %v", n8.ToI8x8())
	}
	un8 := u.VqmovunS16(s16)
	if un8.ToU8x8() != [8]uint8{255, 0, 100, 0, 127, 0, 128, 0} {
		t.Errorf("VqmovunS16: %v", un8.ToU8x8())
	}
	u16 := vec.FromU16x8([8]uint16{256, 255, 1000, 0, 1, 2, 3, 4})
	if u.VqmovnU16(u16).ToU8x8() != [8]uint8{255, 255, 255, 0, 1, 2, 3, 4} {
		t.Error("VqmovnU16")
	}
	trunc := u.VmovnS32(w)
	wide := int32(100000)
	wantTrunc := int16(wide) // low 16 bits of 100000
	if trunc.I16(0) != wantTrunc || trunc.I16(2) != 1234 || trunc.I16(3) != -1234 {
		t.Error("VmovnS32 truncating")
	}
	if u.VmovnU16(u16).U8(0) != 0 || u.VmovnU16(u16).U8(1) != 255 {
		t.Error("VmovnU16 truncating")
	}

	b := vec.FromU8x8([8]uint8{0, 1, 255, 128, 2, 3, 4, 5})
	if u.VmovlU8(b).ToU16x8() != [8]uint16{0, 1, 255, 128, 2, 3, 4, 5} {
		t.Error("VmovlU8")
	}
	sb := vec.FromI8x8([8]int8{-1, 1, -128, 127, 0, 2, -2, 3})
	if u.VmovlS8(sb).ToI16x8() != [8]int16{-1, 1, -128, 127, 0, 2, -2, 3} {
		t.Error("VmovlS8")
	}
	s4 := vec.FromI16x4([4]int16{-1, 32767, -32768, 5})
	if u.VmovlS16(s4).ToI32x4() != [4]int32{-1, 32767, -32768, 5} {
		t.Error("VmovlS16")
	}
	u4 := vec.FromU16x4([4]uint16{65535, 0, 1, 2})
	if u.VmovlU16(u4).ToU32x4() != [4]uint32{65535, 0, 1, 2} {
		t.Error("VmovlU16")
	}
}

func TestShifts(t *testing.T) {
	u := New(nil)
	a := vec.FromI16x8([8]int16{1, -1, 4, -4, 100, -100, 16384, -16384})
	if u.VshlqNS16(a, 2).ToI16x8() != [8]int16{4, -4, 16, -16, 400, -400, 0, 0} {
		t.Error("VshlqNS16")
	}
	if u.VshrqNS16(a, 1).ToI16x8() != [8]int16{0, -1, 2, -2, 50, -50, 8192, -8192} {
		t.Error("VshrqNS16")
	}
	ua := vec.FromU16x8([8]uint16{2, 4, 8, 16, 32, 64, 128, 65535})
	if u.VshrqNU16(ua, 1).ToU16x8() != [8]uint16{1, 2, 4, 8, 16, 32, 64, 32767} {
		t.Error("VshrqNU16")
	}
	if u.VrshrqNU16(vec.FromU16x8([8]uint16{3, 2, 1, 0, 5, 6, 7, 8}), 1).ToU16x8() != [8]uint16{2, 1, 1, 0, 3, 3, 4, 4} {
		t.Error("VrshrqNU16")
	}
	if u.VrshrqNS32(vec.FromI32x4([4]int32{3, -3, 5, -5}), 1).ToI32x4() != [4]int32{2, -1, 3, -2} {
		t.Error("VrshrqNS32")
	}
	nb := u.VrshrnNU16(vec.FromU16x8([8]uint16{511, 512, 513, 0, 255, 256, 257, 1}), 8)
	if nb.ToU8x8() != [8]uint8{2, 2, 2, 0, 1, 1, 1, 0} {
		t.Errorf("VrshrnNU16: %v", nb.ToU8x8())
	}
	qn := u.VqrshrnNS32(vec.FromI32x4([4]int32{1 << 20, -(1 << 20), 256, -256}), 4)
	if qn.ToI16x4() != [4]int16{32767, -32768, 16, -16} {
		t.Errorf("VqrshrnNS32: %v", qn.ToI16x4())
	}
	if u.VqshlqNS16(vec.FromI16x8([8]int16{16384, -16384, 1, 0, 0, 0, 0, 0}), 2).ToI16x8()[0] != 32767 {
		t.Error("VqshlqNS16 saturate")
	}
	if u.VshrqNU8(u.VdupqNU8(255), 4).U8(0) != 15 {
		t.Error("VshrqNU8")
	}
	shifts := vec.FromI16x8([8]int16{2, -2, 0, 16, -16, 1, -1, 3})
	in := vec.FromI16x8([8]int16{1, 8, 5, 1, -1, 2, 4, -8})
	got := u.VshlqS16(in, shifts)
	want := [8]int16{4, 2, 5, 0, -1, 4, 2, -64}
	if got.ToI16x8() != want {
		t.Errorf("VshlqS16: got %v want %v", got.ToI16x8(), want)
	}
	acc := vec.FromI16x8([8]int16{10, 10, 10, 10, 10, 10, 10, 10})
	if u.VsraqNS16(acc, vec.FromI16x8([8]int16{8, -8, 16, 0, 4, 2, 32, 64}), 2).ToI16x8() != [8]int16{12, 8, 14, 10, 11, 10, 18, 26} {
		t.Error("VsraqNS16")
	}
}

func TestShuffles(t *testing.T) {
	u := New(nil)
	lo := vec.FromI16x4([4]int16{1, 2, 3, 4})
	hi := vec.FromI16x4([4]int16{5, 6, 7, 8})
	q := u.VcombineS16(lo, hi)
	if q.ToI16x8() != [8]int16{1, 2, 3, 4, 5, 6, 7, 8} {
		t.Error("VcombineS16")
	}
	if u.VgetLowS16(q) != lo || u.VgetHighS16(q) != hi {
		t.Error("VgetLow/High S16")
	}
	if u.VgetLaneS16(lo, 2) != 3 {
		t.Error("VgetLaneS16")
	}
	if u.VgetqLaneS32(vec.FromI32x4([4]int32{9, 8, 7, 6}), 1) != 8 {
		t.Error("VgetqLaneS32")
	}
	if u.VgetqLaneF32(vec.FromF32x4([4]float32{1, 2, 3, 4}), 3) != 4 {
		t.Error("VgetqLaneF32")
	}
	set := u.VsetqLaneS16(-9, q, 0)
	if set.I16(0) != -9 || set.I16(1) != 2 {
		t.Error("VsetqLaneS16")
	}

	a := vec.FromU8x16([16]uint8{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	b := vec.FromU8x16([16]uint8{16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31})
	e := u.VextU8(a, b, 3)
	if e.U8(0) != 3 || e.U8(12) != 15 || e.U8(13) != 16 || e.U8(15) != 18 {
		t.Errorf("VextU8: %v", e.ToU8x16())
	}
	e16 := u.VextS16(vec.FromI16x8([8]int16{0, 1, 2, 3, 4, 5, 6, 7}), vec.FromI16x8([8]int16{8, 9, 10, 11, 12, 13, 14, 15}), 2)
	if e16.ToI16x8() != [8]int16{2, 3, 4, 5, 6, 7, 8, 9} {
		t.Errorf("VextS16: %v", e16.ToI16x8())
	}
	r := u.Vrev64U8(a)
	if r.U8(0) != 7 || r.U8(7) != 0 || r.U8(8) != 15 || r.U8(15) != 8 {
		t.Errorf("Vrev64U8: %v", r.ToU8x16())
	}
	ta, tb := u.VtrnqS16(vec.FromI16x8([8]int16{0, 1, 2, 3, 4, 5, 6, 7}), vec.FromI16x8([8]int16{10, 11, 12, 13, 14, 15, 16, 17}))
	if ta.ToI16x8() != [8]int16{0, 10, 2, 12, 4, 14, 6, 16} {
		t.Errorf("VtrnqS16 a: %v", ta.ToI16x8())
	}
	if tb.ToI16x8() != [8]int16{1, 11, 3, 13, 5, 15, 7, 17} {
		t.Errorf("VtrnqS16 b: %v", tb.ToI16x8())
	}
	zlo, zhi := u.VzipqU8(a, b)
	if zlo.U8(0) != 0 || zlo.U8(1) != 16 || zhi.U8(0) != 8 || zhi.U8(1) != 24 {
		t.Error("VzipqU8")
	}
	uev, uod := u.VuzpqU8(zlo, zhi)
	if uev != a || uod != b {
		t.Error("VuzpqU8 should invert VzipqU8")
	}
	tbl := vec.FromU8x8([8]uint8{100, 101, 102, 103, 104, 105, 106, 107})
	idx := vec.FromU8x8([8]uint8{7, 0, 3, 200, 1, 1, 6, 8})
	lk := u.VtblU8(tbl, idx)
	if lk.ToU8x8() != [8]uint8{107, 100, 103, 0, 101, 101, 106, 0} {
		t.Errorf("VtblU8: %v", lk.ToU8x8())
	}
	if u.VreinterpretqS16U8(a) != a || u.VreinterpretqU8S16(a) != a ||
		u.VreinterpretqU16S16(a) != a || u.VreinterpretqS16U16(a) != a {
		t.Error("reinterpret must be identity")
	}
	if u.VcombineU8(vec.FromU8x8([8]uint8{1, 2, 3, 4, 5, 6, 7, 8}), vec.FromU8x8([8]uint8{9, 10, 11, 12, 13, 14, 15, 16})).U8(15) != 16 {
		t.Error("VcombineU8")
	}
	if u.VcombineU16(vec.FromU16x4([4]uint16{1, 2, 3, 4}), vec.FromU16x4([4]uint16{5, 6, 7, 8})).U16(7) != 8 {
		t.Error("VcombineU16")
	}
	if u.VcombineF32(vec.FromF32x2([2]float32{1, 2}), vec.FromF32x2([2]float32{3, 4})).F32(3) != 4 {
		t.Error("VcombineF32")
	}
	if u.VgetLowU8(a).U8(0) != 0 || u.VgetHighU8(a).U8(0) != 8 {
		t.Error("VgetLow/HighU8")
	}
}

func TestReciprocalEstimates(t *testing.T) {
	u := New(nil)
	x := vec.FromF32x4([4]float32{2, 4, 0.5, 8})
	est := u.VrecpeqF32(x)
	// One Newton refinement step should get close to the true reciprocal.
	ref := u.VmulqF32(est, u.VrecpsqF32(x, est))
	for i := 0; i < 4; i++ {
		want := 1 / x.F32(i)
		if math.Abs(float64(ref.F32(i)-want)) > 1e-3*float64(want) {
			t.Errorf("recip lane %d: got %v want %v", i, ref.F32(i), want)
		}
	}
	rs := u.VrsqrteqF32(x)
	refined := u.VmulqF32(rs, u.VrsqrtsqF32(u.VmulqF32(x, rs), rs))
	for i := 0; i < 4; i++ {
		want := 1 / float32(math.Sqrt(float64(x.F32(i))))
		if math.Abs(float64(refined.F32(i)-want)) > 2e-3*float64(want) {
			t.Errorf("rsqrt lane %d: got %v want %v", i, refined.F32(i), want)
		}
	}
}

// Property: VqmovnS32 agrees with the scalar saturation library lane-wise.
func TestQuickQmovnMatchesScalar(t *testing.T) {
	u := New(nil)
	f := func(a [4]int32) bool {
		n := u.VqmovnS32(vec.FromI32x4(a))
		for i := 0; i < 4; i++ {
			if n.I16(i) != sat.NarrowInt32ToInt16(a[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the full paper convert sequence equals the scalar
// truncate-then-saturate reference for arbitrary inputs.
func TestQuickConvertSequenceMatchesScalar(t *testing.T) {
	u := New(nil)
	f := func(in [8]float32) bool {
		src := in[:]
		dst := make([]int16, 8)
		a := u.VcvtqS32F32(u.Vld1qF32(src))
		lo := u.VqmovnS32(a)
		b := u.VcvtqS32F32(u.Vld1qF32(src[4:]))
		hi := u.VqmovnS32(b)
		u.Vst1qS16(dst, u.VcombineS16(lo, hi))
		for i := 0; i < 8; i++ {
			want := sat.NarrowInt32ToInt16(sat.Float32ToInt32Truncate(src[i]))
			if dst[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: vmin/vmax form a lattice: min(a,b)+max(a,b) == a+b lane-wise.
func TestQuickMinMaxLattice(t *testing.T) {
	u := New(nil)
	f := func(a, b [16]uint8) bool {
		va, vb := vec.FromU8x16(a), vec.FromU8x16(b)
		mn := u.VminqU8(va, vb)
		mx := u.VmaxqU8(va, vb)
		for i := 0; i < 16; i++ {
			if int(mn.U8(i))+int(mx.U8(i)) != int(a[i])+int(b[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: zip then unzip is the identity.
func TestQuickZipUnzipRoundTrip(t *testing.T) {
	u := New(nil)
	f := func(a, b [16]uint8) bool {
		va, vb := vec.FromU8x16(a), vec.FromU8x16(b)
		lo, hi := u.VzipqU8(va, vb)
		ra, rb := u.VuzpqU8(lo, hi)
		return ra == va && rb == vb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStructuredLoads(t *testing.T) {
	u := New(nil)
	// 8 RGB pixels: R=10k+0, G=10k+1, B=10k+2 pattern mod 256.
	rgb := make([]uint8, 24)
	for k := 0; k < 8; k++ {
		rgb[3*k] = uint8(10*k + 1)
		rgb[3*k+1] = uint8(10*k + 2)
		rgb[3*k+2] = uint8(10*k + 3)
	}
	planes := u.Vld3U8(rgb)
	for k := 0; k < 8; k++ {
		if planes[0].U8(k) != uint8(10*k+1) || planes[1].U8(k) != uint8(10*k+2) || planes[2].U8(k) != uint8(10*k+3) {
			t.Fatalf("vld3 lane %d: %d %d %d", k, planes[0].U8(k), planes[1].U8(k), planes[2].U8(k))
		}
	}
	out := make([]uint8, 24)
	u.Vst3U8(out, planes)
	for i := range rgb {
		if out[i] != rgb[i] {
			t.Fatalf("vst3 byte %d", i)
		}
	}

	two := make([]uint8, 16)
	for i := range two {
		two[i] = uint8(i)
	}
	pair := u.Vld2U8(two)
	if pair[0].U8(0) != 0 || pair[1].U8(0) != 1 || pair[0].U8(7) != 14 || pair[1].U8(7) != 15 {
		t.Fatal("vld2 deinterleave")
	}
	out2 := make([]uint8, 16)
	u.Vst2U8(out2, pair)
	for i := range two {
		if out2[i] != two[i] {
			t.Fatalf("vst2 byte %d", i)
		}
	}

	four := make([]uint8, 32)
	for i := range four {
		four[i] = uint8(i * 3)
	}
	quad := u.Vld4U8(four)
	if quad[0].U8(1) != four[4] || quad[3].U8(0) != four[3] {
		t.Fatal("vld4 deinterleave")
	}
	out4 := make([]uint8, 32)
	u.Vst4U8(out4, quad)
	for i := range four {
		if out4[i] != four[i] {
			t.Fatalf("vst4 byte %d", i)
		}
	}

	wide := make([]uint8, 32)
	for i := range wide {
		wide[i] = uint8(255 - i)
	}
	qpair := u.Vld2qU8(wide)
	if qpair[0].U8(0) != 255 || qpair[1].U8(0) != 254 || qpair[0].U8(15) != 225 {
		t.Fatal("vld2q deinterleave")
	}
	outQ := make([]uint8, 32)
	u.Vst2qU8(outQ, qpair)
	for i := range wide {
		if outQ[i] != wide[i] {
			t.Fatalf("vst2q byte %d", i)
		}
	}
}

// Property: vld3 then vst3 is the identity on any 24-byte block.
func TestQuickStructuredRoundTrip(t *testing.T) {
	u := New(nil)
	f := func(data [24]uint8) bool {
		out := make([]uint8, 24)
		u.Vst3U8(out, u.Vld3U8(data[:]))
		for i := range data {
			if out[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStructuredLoadTraceBytes(t *testing.T) {
	var tr trace.Counter
	u := New(&tr)
	buf := make([]uint8, 64)
	u.Vld3U8(buf)
	u.Vst3U8(buf, [3]vec.V64{})
	u.Flush()
	if tr.BytesLoaded() != 24 || tr.BytesStored() != 24 {
		t.Fatalf("vld3/vst3 bytes: %d/%d", tr.BytesLoaded(), tr.BytesStored())
	}
	if tr.Opcode("vld3.8") != 1 || tr.Opcode("vst3.8") != 1 {
		t.Fatal("structured opcodes not recorded")
	}
}

// TestFlushIdempotent: a unit's tally reaches its counter at Flush, and a
// second Flush adds nothing. A shared unit records without one.
func TestFlushIdempotent(t *testing.T) {
	var tr trace.Counter
	u := New(&tr)
	u.VaddqU8(u.Vld1qU8(make([]uint8, 16)), vec.V128{})
	u.Overhead(2, 1, 1)
	if tr.Total() != 0 {
		t.Fatal("tally reached the counter before Flush")
	}
	u.Flush()
	want := tr.Summary()
	u.Flush()
	if got := tr.Summary(); got != want || tr.Total() != 6 {
		t.Fatalf("second Flush changed the counter (total %d):\n%s\nwant:\n%s", tr.Total(), got, want)
	}

	var direct trace.Counter
	s := New(&direct)
	s.Share()
	s.VaddqU8(vec.V128{}, vec.V128{})
	if direct.Opcode("vadd.i8") != 1 {
		t.Fatal("shared unit must record straight into its counter")
	}
}
