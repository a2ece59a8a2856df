package sse2

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
	f := []float32{1.5, -2, 3.25, 4}
	v := u.LoaduPs(f)
	out := make([]float32, 4)
	u.StoreuPs(out, v)
	for i := range out {
		if out[i] != f[i] {
			t.Fatalf("f32 lane %d", i)
		}
	}
	if u.LoadPs(f) != v {
		t.Fatal("aligned load mismatch")
	}
	raw := make([]byte, 16)
	for i := range raw {
		raw[i] = byte(i)
	}
	b := u.LoaduSi128(raw)
	outB := make([]byte, 16)
	u.StoreuSi128(outB, b)
	for i := range outB {
		if outB[i] != byte(i) {
			t.Fatalf("byte lane %d", i)
		}
	}
	s := []int16{-1, 2, -3, 4, -5, 6, -7, 8}
	vs := u.LoaduSi128S16(s)
	outS := make([]int16, 8)
	u.StoreuSi128S16(outS, vs)
	for i := range outS {
		if outS[i] != s[i] {
			t.Fatalf("s16 lane %d", i)
		}
	}
	u8 := []uint8{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	vu := u.LoaduSi128U8(u8)
	outU := make([]uint8, 16)
	u.StoreuSi128U8(outU, vu)
	for i := range outU {
		if outU[i] != u8[i] {
			t.Fatalf("u8 lane %d", i)
		}
	}
	u16 := []uint16{1, 65535, 3, 4, 5, 6, 7, 8}
	v16 := u.LoaduSi128U16(u16)
	out16 := make([]uint16, 8)
	u.StoreuSi128U16(out16, v16)
	for i := range out16 {
		if out16[i] != u16[i] {
			t.Fatalf("u16 lane %d", i)
		}
	}
	i32 := []int32{-1, 2, math.MaxInt32, math.MinInt32}
	v32 := u.LoaduSi128S32(i32)
	out32 := make([]int32, 4)
	u.StoreuSi128S32(out32, v32)
	for i := range out32 {
		if out32[i] != i32[i] {
			t.Fatalf("s32 lane %d", i)
		}
	}
	d := []float64{math.Pi, -1}
	vd := u.LoaduPd(d)
	if vd.F64(0) != math.Pi || vd.F64(1) != -1 {
		t.Fatal("pd load")
	}
	ss := u.LoadSs([]float32{7.5})
	if ss.F32(0) != 7.5 || ss.F32(1) != 0 {
		t.Fatal("ss load")
	}
}

// TestPaperConvertSequence replays the paper's SSE2 convert loop body for
// one iteration: loadu/cvtps/loadu/cvtps/packs/storeu = 6 instructions per
// 8 pixels, two fewer than NEON's 8.
func TestPaperConvertSequence(t *testing.T) {
	var tr trace.Counter
	u := New(&tr)
	src := []float32{0.4, 0.6, -0.5, 1e9, -1e9, 32767.7, -32768.9, 123.4}
	dst := make([]int16, 8)

	src128 := u.LoaduPs(src)
	srcInt128 := u.CvtpsEpi32(src128)
	src128 = u.LoaduPs(src[4:])
	src1Int128 := u.CvtpsEpi32(src128)
	src1Int128 = u.PacksEpi32(srcInt128, src1Int128)
	u.StoreuSi128S16(dst, src1Int128)

	// cvtps2dq rounds to even; packssdw saturates to int16. 1e9 fits in
	// int32 and then saturates to 32767 in the pack; -1e9 saturates to
	// -32768.
	want := []int16{0, 1, 0, 32767, -32768, 32767, -32768, 123}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("pixel %d: got %d want %d", i, dst[i], want[i])
		}
	}
	u.Flush()
	if got := tr.Total(); got != 6 {
		t.Errorf("instruction count: got %d want 6", got)
	}
	if tr.Count(trace.SIMDCvt) != 3 { // 2 cvtps2dq + 1 packssdw
		t.Errorf("cvt count: %d", tr.Count(trace.SIMDCvt))
	}
	if tr.BytesLoaded() != 32 || tr.BytesStored() != 16 {
		t.Errorf("bytes: %d/%d", tr.BytesLoaded(), tr.BytesStored())
	}
}

func TestCvRoundIdiom(t *testing.T) {
	u := New(nil)
	// OpenCV cvRound: _mm_cvtsd_si32(_mm_set_sd(value)).
	cases := []struct {
		in   float64
		want int32
	}{
		{0.5, 0}, {1.5, 2}, {2.5, 2}, {-0.5, 0}, {-1.5, -2}, {3.7, 4}, {-3.7, -4},
	}
	for _, c := range cases {
		if got := u.CvtsdSi32(u.SetSd(c.in)); got != c.want {
			t.Errorf("cvRound(%v): got %d want %d", c.in, got, c.want)
		}
	}
	if got := u.CvtsdSi32(u.SetSd(1e12)); got != math.MinInt32 {
		t.Errorf("cvRound overflow should give integer indefinite: %d", got)
	}
}

func TestSetBroadcast(t *testing.T) {
	u := New(nil)
	if u.Set1Ps(2.5).ToF32x4() != [4]float32{2.5, 2.5, 2.5, 2.5} {
		t.Error("Set1Ps")
	}
	if u.Set1Epi16(-7).ToI16x8() != [8]int16{-7, -7, -7, -7, -7, -7, -7, -7} {
		t.Error("Set1Epi16")
	}
	if u.Set1Epi32(9).ToI32x4() != [4]int32{9, 9, 9, 9} {
		t.Error("Set1Epi32")
	}
	v := u.Set1Epi8(-1)
	if v != vec.Ones() {
		t.Error("Set1Epi8(-1) should be all ones")
	}
	if u.Set1Epu8(200).U8(15) != 200 {
		t.Error("Set1Epu8")
	}
	if u.SetrEpi16(1, 2, 3, 4, 5, 6, 7, 8).ToI16x8() != [8]int16{1, 2, 3, 4, 5, 6, 7, 8} {
		t.Error("SetrEpi16")
	}
	if u.SetzeroSi128() != vec.Zero() || u.SetzeroPs() != vec.Zero() {
		t.Error("setzero")
	}
	if u.CvtsiSi128(-5).I32(0) != -5 || u.CvtsiSi128(-5).I32(1) != 0 {
		t.Error("CvtsiSi128")
	}
	if u.Cvtsi128Si32(u.Set1Epi32(42)) != 42 {
		t.Error("Cvtsi128Si32")
	}
	if u.ExtractEpi16(u.Set1Epi16(-1), 3) != 0xFFFF {
		t.Error("ExtractEpi16 zero-extends")
	}
}

func TestArithmetic(t *testing.T) {
	u := New(nil)
	a := vec.FromF32x4([4]float32{1, 2, 3, 4})
	b := vec.FromF32x4([4]float32{4, 3, 2, 1})
	if u.AddPs(a, b).ToF32x4() != [4]float32{5, 5, 5, 5} {
		t.Error("AddPs")
	}
	if u.SubPs(a, b).ToF32x4() != [4]float32{-3, -1, 1, 3} {
		t.Error("SubPs")
	}
	if u.MulPs(a, b).ToF32x4() != [4]float32{4, 6, 6, 4} {
		t.Error("MulPs")
	}
	if u.DivPs(a, b).ToF32x4() != [4]float32{0.25, 2.0 / 3.0, 1.5, 4} {
		t.Error("DivPs")
	}
	if u.SqrtPs(vec.FromF32x4([4]float32{4, 9, 16, 25})).ToF32x4() != [4]float32{2, 3, 4, 5} {
		t.Error("SqrtPs")
	}
	rcp := u.RcpPs(vec.FromF32x4([4]float32{2, 4, 8, 10}))
	if math.Abs(float64(rcp.F32(0))-0.5) > 1e-3 {
		t.Error("RcpPs")
	}
	if u.MinPs(a, b).ToF32x4() != [4]float32{1, 2, 2, 1} {
		t.Error("MinPs")
	}
	if u.MaxPs(a, b).ToF32x4() != [4]float32{4, 3, 3, 4} {
		t.Error("MaxPs")
	}
	d1 := vec.FromF64x2([2]float64{1.5, -2})
	d2 := vec.FromF64x2([2]float64{0.5, 3})
	if u.AddPd(d1, d2).ToF64x2() != [2]float64{2, 1} {
		t.Error("AddPd")
	}
	if u.MulPd(d1, d2).ToF64x2() != [2]float64{0.75, -6} {
		t.Error("MulPd")
	}

	i16a := vec.FromI16x8([8]int16{1, 2, 3, 4, 5, 6, 7, 8})
	i16b := vec.FromI16x8([8]int16{10, 20, 30, 40, 50, 60, 70, 80})
	if u.AddEpi16(i16a, i16b).I16(7) != 88 {
		t.Error("AddEpi16")
	}
	if u.SubEpi16(i16b, i16a).I16(0) != 9 {
		t.Error("SubEpi16")
	}
	if u.MulloEpi16(i16a, i16b).I16(1) != 40 {
		t.Error("MulloEpi16")
	}
	big := u.Set1Epi16(math.MaxInt16)
	one := u.Set1Epi16(1)
	if u.AddEpi16(big, one).I16(0) != math.MinInt16 {
		t.Error("AddEpi16 wraps")
	}
	if u.AddsEpi16(big, one).I16(0) != math.MaxInt16 {
		t.Error("AddsEpi16 saturates")
	}
	if u.SubsEpi16(u.Set1Epi16(math.MinInt16), one).I16(0) != math.MinInt16 {
		t.Error("SubsEpi16 saturates")
	}
	bu := u.Set1Epu8(250)
	if u.AddEpi8(bu, u.Set1Epu8(10)).U8(0) != 4 {
		t.Error("AddEpi8 wraps")
	}
	if u.AddsEpu8(bu, u.Set1Epu8(10)).U8(0) != 255 {
		t.Error("AddsEpu8 saturates")
	}
	if u.SubsEpu8(u.Set1Epu8(5), u.Set1Epu8(10)).U8(0) != 0 {
		t.Error("SubsEpu8 floors")
	}
	if u.SubEpi8(u.Set1Epu8(5), u.Set1Epu8(10)).U8(0) != 251 {
		t.Error("SubEpi8 wraps")
	}
	i32a := vec.FromI32x4([4]int32{1, -2, 3, -4})
	i32b := vec.FromI32x4([4]int32{10, 20, 30, 40})
	if u.AddEpi32(i32a, i32b).ToI32x4() != [4]int32{11, 18, 33, 36} {
		t.Error("AddEpi32")
	}
	if u.SubEpi32(i32b, i32a).ToI32x4() != [4]int32{9, 22, 27, 44} {
		t.Error("SubEpi32")
	}

	// pmulhw: high 16 bits of products.
	h := u.MulhiEpi16(u.Set1Epi16(0x4000), u.Set1Epi16(0x4000))
	if h.I16(0) != 0x1000 {
		t.Errorf("MulhiEpi16: %#x", h.I16(0))
	}
	hu := u.MulhiEpu16(vec.FromU16x8([8]uint16{0x8000, 0, 0, 0, 0, 0, 0, 0}), vec.FromU16x8([8]uint16{0x8000, 0, 0, 0, 0, 0, 0, 0}))
	if hu.U16(0) != 0x4000 {
		t.Errorf("MulhiEpu16: %#x", hu.U16(0))
	}
	md := u.MaddEpi16(vec.FromI16x8([8]int16{1, 2, 3, 4, 5, 6, 7, 8}), vec.FromI16x8([8]int16{1, 1, 1, 1, 2, 2, 2, 2}))
	if md.ToI32x4() != [4]int32{3, 7, 22, 30} {
		t.Errorf("MaddEpi16: %v", md.ToI32x4())
	}
	if u.AvgEpu8(u.Set1Epu8(1), u.Set1Epu8(2)).U8(0) != 2 {
		t.Error("AvgEpu8 rounds up")
	}
	if u.AvgEpu16(vec.FromU16x8([8]uint16{1, 0, 0, 0, 0, 0, 0, 0}), vec.FromU16x8([8]uint16{2, 0, 0, 0, 0, 0, 0, 0})).U16(0) != 2 {
		t.Error("AvgEpu16 rounds up")
	}
	sad := u.SadEpu8(u.Set1Epu8(10), u.Set1Epu8(3))
	if sad.U64(0) != 56 || sad.U64(1) != 56 {
		t.Errorf("SadEpu8: %d %d", sad.U64(0), sad.U64(1))
	}
	if u.MinEpu8(u.Set1Epu8(3), u.Set1Epu8(7)).U8(0) != 3 {
		t.Error("MinEpu8")
	}
	if u.MaxEpu8(u.Set1Epu8(3), u.Set1Epu8(7)).U8(0) != 7 {
		t.Error("MaxEpu8")
	}
	if u.MinEpi16(u.Set1Epi16(-3), u.Set1Epi16(2)).I16(0) != -3 {
		t.Error("MinEpi16")
	}
	if u.MaxEpi16(u.Set1Epi16(-3), u.Set1Epi16(2)).I16(0) != 2 {
		t.Error("MaxEpi16")
	}
}

func TestConversions(t *testing.T) {
	u := New(nil)
	f := vec.FromF32x4([4]float32{0.5, 1.5, 2.5, -2.5})
	if u.CvtpsEpi32(f).ToI32x4() != [4]int32{0, 2, 2, -2} {
		t.Error("CvtpsEpi32 round-to-even")
	}
	if u.CvttpsEpi32(vec.FromF32x4([4]float32{1.9, -1.9, 1e10, -1e10})).ToI32x4() != [4]int32{1, -1, math.MinInt32, math.MinInt32} {
		t.Error("CvttpsEpi32 truncate + indefinite")
	}
	if u.Cvtepi32Ps(vec.FromI32x4([4]int32{-1, 0, 100, -100})).ToF32x4() != [4]float32{-1, 0, 100, -100} {
		t.Error("Cvtepi32Ps")
	}
	pd := u.CvtpsPd(vec.FromF32x4([4]float32{1.5, -2.5, 9, 9}))
	if pd.F64(0) != 1.5 || pd.F64(1) != -2.5 {
		t.Error("CvtpsPd")
	}
	ps := u.CvtpdPs(vec.FromF64x2([2]float64{3.5, -4.5}))
	if ps.F32(0) != 3.5 || ps.F32(1) != -4.5 {
		t.Error("CvtpdPs")
	}
}

func TestPacks(t *testing.T) {
	u := New(nil)
	a := vec.FromI32x4([4]int32{100000, -100000, 1, -1})
	b := vec.FromI32x4([4]int32{32767, -32768, 42, 0})
	p := u.PacksEpi32(a, b)
	if p.ToI16x8() != [8]int16{32767, -32768, 1, -1, 32767, -32768, 42, 0} {
		t.Errorf("PacksEpi32: %v", p.ToI16x8())
	}
	s := vec.FromI16x8([8]int16{300, -300, 127, -128, 1, -1, 0, 5})
	p8 := u.PacksEpi16(s, s)
	if p8.I8(0) != 127 || p8.I8(1) != -128 || p8.I8(8) != 127 {
		t.Error("PacksEpi16")
	}
	pu := u.PackusEpi16(s, s)
	if pu.U8(0) != 255 || pu.U8(1) != 0 || pu.U8(7) != 5 {
		t.Error("PackusEpi16")
	}
}

func TestUnpacks(t *testing.T) {
	u := New(nil)
	a := vec.FromU8x16([16]uint8{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	b := vec.FromU8x16([16]uint8{16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31})
	lo := u.UnpackloEpi8(a, b)
	if lo.U8(0) != 0 || lo.U8(1) != 16 || lo.U8(14) != 7 || lo.U8(15) != 23 {
		t.Errorf("UnpackloEpi8: %v", lo.ToU8x16())
	}
	hi := u.UnpackhiEpi8(a, b)
	if hi.U8(0) != 8 || hi.U8(1) != 24 {
		t.Error("UnpackhiEpi8")
	}
	w1 := vec.FromU16x8([8]uint16{0, 1, 2, 3, 4, 5, 6, 7})
	w2 := vec.FromU16x8([8]uint16{10, 11, 12, 13, 14, 15, 16, 17})
	wlo := u.UnpackloEpi16(w1, w2)
	if wlo.ToU16x8() != [8]uint16{0, 10, 1, 11, 2, 12, 3, 13} {
		t.Error("UnpackloEpi16")
	}
	whi := u.UnpackhiEpi16(w1, w2)
	if whi.ToU16x8() != [8]uint16{4, 14, 5, 15, 6, 16, 7, 17} {
		t.Error("UnpackhiEpi16")
	}
	d1 := vec.FromU32x4([4]uint32{0, 1, 2, 3})
	d2 := vec.FromU32x4([4]uint32{10, 11, 12, 13})
	if u.UnpackloEpi32(d1, d2).ToU32x4() != [4]uint32{0, 10, 1, 11} {
		t.Error("UnpackloEpi32")
	}
	if u.UnpackhiEpi32(d1, d2).ToU32x4() != [4]uint32{2, 12, 3, 13} {
		t.Error("UnpackhiEpi32")
	}
	q1 := vec.FromU64x2([2]uint64{1, 2})
	q2 := vec.FromU64x2([2]uint64{3, 4})
	if u.UnpackloEpi64(q1, q2).U64(0) != 1 || u.UnpackloEpi64(q1, q2).U64(1) != 3 {
		t.Error("UnpackloEpi64")
	}
	if u.UnpackhiEpi64(q1, q2).U64(0) != 2 || u.UnpackhiEpi64(q1, q2).U64(1) != 4 {
		t.Error("UnpackhiEpi64")
	}
}

func TestShuffles(t *testing.T) {
	u := New(nil)
	a := vec.FromU32x4([4]uint32{10, 11, 12, 13})
	// imm 0b00011011 = lanes 3,2,1,0 reversed.
	if u.ShuffleEpi32(a, 0x1B).ToU32x4() != [4]uint32{13, 12, 11, 10} {
		t.Error("ShuffleEpi32 reverse")
	}
	if u.ShuffleEpi32(a, 0x00).ToU32x4() != [4]uint32{10, 10, 10, 10} {
		t.Error("ShuffleEpi32 broadcast")
	}
	w := vec.FromU16x8([8]uint16{0, 1, 2, 3, 4, 5, 6, 7})
	sl := u.ShuffleloEpi16(w, 0x1B)
	if sl.ToU16x8() != [8]uint16{3, 2, 1, 0, 4, 5, 6, 7} {
		t.Errorf("ShuffleloEpi16: %v", sl.ToU16x8())
	}
	sh := u.ShufflehiEpi16(w, 0x1B)
	if sh.ToU16x8() != [8]uint16{0, 1, 2, 3, 7, 6, 5, 4} {
		t.Errorf("ShufflehiEpi16: %v", sh.ToU16x8())
	}
	fa := vec.FromF32x4([4]float32{0, 1, 2, 3})
	fb := vec.FromF32x4([4]float32{10, 11, 12, 13})
	sp := u.ShufflePs(fa, fb, 0xE4) // identity-ish: a0,a1,b2,b3
	if sp.ToF32x4() != [4]float32{0, 1, 12, 13} {
		t.Errorf("ShufflePs: %v", sp.ToF32x4())
	}
}

func TestShifts(t *testing.T) {
	u := New(nil)
	w := vec.FromU16x8([8]uint16{1, 2, 4, 8, 0x8000, 3, 5, 7})
	if u.SlliEpi16(w, 1).ToU16x8() != [8]uint16{2, 4, 8, 16, 0, 6, 10, 14} {
		t.Error("SlliEpi16")
	}
	if u.SrliEpi16(w, 1).ToU16x8() != [8]uint16{0, 1, 2, 4, 0x4000, 1, 2, 3} {
		t.Error("SrliEpi16")
	}
	s := vec.FromI16x8([8]int16{-4, 4, -1, 1, -32768, 0, 2, -2})
	if u.SraiEpi16(s, 1).ToI16x8() != [8]int16{-2, 2, -1, 0, -16384, 0, 1, -1} {
		t.Error("SraiEpi16")
	}
	if u.SraiEpi16(s, 99).I16(0) != -1 || u.SraiEpi16(s, 99).I16(1) != 0 {
		t.Error("SraiEpi16 saturating count")
	}
	if u.SlliEpi16(w, 16) != vec.Zero() || u.SrliEpi16(w, 16) != vec.Zero() {
		t.Error("word shifts by >=16 zero out")
	}
	d := vec.FromU32x4([4]uint32{1, 2, 0x80000000, 4})
	if u.SlliEpi32(d, 1).ToU32x4() != [4]uint32{2, 4, 0, 8} {
		t.Error("SlliEpi32")
	}
	if u.SrliEpi32(d, 1).ToU32x4() != [4]uint32{0, 1, 0x40000000, 2} {
		t.Error("SrliEpi32")
	}
	sd := vec.FromI32x4([4]int32{-4, 4, math.MinInt32, 1})
	if u.SraiEpi32(sd, 2).ToI32x4() != [4]int32{-1, 1, math.MinInt32 >> 2, 0} {
		t.Error("SraiEpi32")
	}
	bytes := vec.FromU8x16([16]uint8{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	sl := u.SlliSi128(bytes, 2)
	if sl.U8(0) != 0 || sl.U8(1) != 0 || sl.U8(2) != 0 || sl.U8(15) != 13 {
		t.Errorf("SlliSi128: %v", sl.ToU8x16())
	}
	sr := u.SrliSi128(bytes, 3)
	if sr.U8(0) != 3 || sr.U8(12) != 15 || sr.U8(13) != 0 {
		t.Errorf("SrliSi128: %v", sr.ToU8x16())
	}
	if u.SlliSi128(bytes, 16) != vec.Zero() || u.SrliSi128(bytes, 16) != vec.Zero() {
		t.Error("byte shifts by 16 zero out")
	}
}

func TestLogicAndCompares(t *testing.T) {
	u := New(nil)
	a := u.Set1Epu8(0xF0)
	b := u.Set1Epu8(0x0F)
	if u.AndSi128(a, b) != vec.Zero() {
		t.Error("AndSi128")
	}
	if u.OrSi128(a, b) != vec.Ones() {
		t.Error("OrSi128")
	}
	if u.XorSi128(a, a) != vec.Zero() {
		t.Error("XorSi128")
	}
	// pandn complements the FIRST operand.
	if u.AndnotSi128(a, b) != b {
		t.Error("AndnotSi128 operand order")
	}
	if u.AndPs(a, b) != vec.Zero() || u.OrPs(a, b) != vec.Ones() || u.AndnotPs(a, b) != b {
		t.Error("float-typed logicals")
	}

	x := vec.FromI16x8([8]int16{-5, 0, 5, 10, -10, 3, -3, 7})
	z := u.SetzeroSi128()
	gt := u.CmpgtEpi16(x, z)
	if gt.U16(0) != 0 || gt.U16(2) != 0xFFFF {
		t.Error("CmpgtEpi16")
	}
	lt := u.CmpltEpi16(x, z)
	if lt.U16(0) != 0xFFFF || lt.U16(2) != 0 {
		t.Error("CmpltEpi16")
	}
	eq := u.CmpeqEpi16(x, z)
	if eq.U16(1) != 0xFFFF || eq.U16(0) != 0 {
		t.Error("CmpeqEpi16")
	}
	by := vec.FromI8x16([16]int8{-1, 0, 1, 2, -2, 5, -5, 100, -100, 0, 0, 0, 0, 0, 0, 0})
	bz := u.SetzeroSi128()
	bgt := u.CmpgtEpi8(by, bz)
	if bgt.U8(0) != 0 || bgt.U8(2) != 0xFF {
		t.Error("CmpgtEpi8")
	}
	beq := u.CmpeqEpi8(by, bz)
	if beq.U8(1) != 0xFF || beq.U8(0) != 0 {
		t.Error("CmpeqEpi8")
	}
	dw := vec.FromI32x4([4]int32{-1, 0, 1, math.MaxInt32})
	if u.CmpgtEpi32(dw, vec.Zero()).U32(2) != 0xFFFFFFFF {
		t.Error("CmpgtEpi32")
	}
	if u.CmpeqEpi32(dw, vec.Zero()).U32(1) != 0xFFFFFFFF {
		t.Error("CmpeqEpi32")
	}
	f := vec.FromF32x4([4]float32{-1, 0, 1, 2})
	fz := u.SetzeroPs()
	if u.CmpgtPs(f, fz).U32(2) != 0xFFFFFFFF || u.CmpgtPs(f, fz).U32(0) != 0 {
		t.Error("CmpgtPs")
	}
	if u.CmpgePs(f, fz).U32(1) != 0xFFFFFFFF {
		t.Error("CmpgePs")
	}
	if u.CmpltPs(f, fz).U32(0) != 0xFFFFFFFF {
		t.Error("CmpltPs")
	}
	if u.CmpeqPs(f, fz).U32(1) != 0xFFFFFFFF {
		t.Error("CmpeqPs")
	}
	if u.CmpneqPs(f, fz).U32(1) != 0 || u.CmpneqPs(f, fz).U32(0) != 0xFFFFFFFF {
		t.Error("CmpneqPs")
	}
}

func TestMovemask(t *testing.T) {
	u := New(nil)
	v := vec.Zero()
	v.SetU8(0, 0x80)
	v.SetU8(3, 0xFF)
	v.SetU8(15, 0x80)
	if got := u.MovemaskEpi8(v); got != (1 | 1<<3 | 1<<15) {
		t.Errorf("MovemaskEpi8: %#x", got)
	}
	f := vec.FromF32x4([4]float32{-1, 1, -2, 2})
	if got := u.MovemaskPs(f); got != 0b0101 {
		t.Errorf("MovemaskPs: %#x", got)
	}
}

func TestAVX(t *testing.T) {
	var tr trace.Counter
	u := New(&tr)
	src := []float32{1.4, 2.6, -3.5, 4, 5, 6, 7, 8}
	v := u.Loadu256Ps(src)
	doubled := u.Add256Ps(v, v)
	if doubled.Hi.F32(3) != 16 {
		t.Error("Add256Ps")
	}
	sq := u.Mul256Ps(v, v)
	if sq.Lo.F32(0) != float32(1.4)*float32(1.4) {
		t.Error("Mul256Ps")
	}
	iv := u.Cvt256PsEpi32(v)
	if iv.Lo.I32(0) != 1 || iv.Lo.I32(1) != 3 || iv.Lo.I32(2) != -4 {
		t.Errorf("Cvt256PsEpi32: %v", iv.Lo.ToI32x4())
	}
	packed := u.Packs256Epi32(iv, iv)
	if packed.Lo.I16(0) != 1 {
		t.Error("Packs256Epi32")
	}
	dst := make([]int16, 16)
	u.Storeu256Si256S16(dst, packed)
	if dst[8] != 5 { // high 128-bit lane packs iv.Hi with itself
		t.Error("Storeu256Si256S16")
	}
	b := u.Set1256Ps(2)
	if b.Hi.F32(0) != 2 {
		t.Error("Set1256Ps")
	}
	// AVX processes 8 floats per load: half the instruction count of SSE2.
	u.Flush()
	if tr.BytesLoaded() != 32 {
		t.Errorf("AVX load bytes: %d", tr.BytesLoaded())
	}
}

func TestOverhead(t *testing.T) {
	var tr trace.Counter
	u := New(&tr)
	u.Overhead(2, 1, 1)
	u.Flush()
	if tr.Count(trace.AddrCalc) != 2 || tr.Count(trace.Branch) != 1 || tr.Count(trace.Move) != 1 {
		t.Fatal("overhead accounting")
	}
}

// Property: PacksEpi32 lane semantics match the scalar saturation library.
func TestQuickPacksMatchesScalar(t *testing.T) {
	u := New(nil)
	f := func(a, b [4]int32) bool {
		p := u.PacksEpi32(vec.FromI32x4(a), vec.FromI32x4(b))
		for i := 0; i < 4; i++ {
			if p.I16(i) != sat.NarrowInt32ToInt16(a[i]) {
				return false
			}
			if p.I16(4+i) != sat.NarrowInt32ToInt16(b[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: unpack lo/hi of (a,b) followed by packus reconstructs saturated
// interleavings consistently; here we check the simpler invariant that
// unpacklo+unpackhi together contain every input byte exactly once.
func TestQuickUnpackPreservesBytes(t *testing.T) {
	u := New(nil)
	f := func(a, b [16]uint8) bool {
		lo := u.UnpackloEpi8(vec.FromU8x16(a), vec.FromU8x16(b))
		hi := u.UnpackhiEpi8(vec.FromU8x16(a), vec.FromU8x16(b))
		counts := map[uint8]int{}
		for i := 0; i < 16; i++ {
			counts[a[i]]++
			counts[b[i]]++
			counts[lo.U8(i)]--
			counts[hi.U8(i)]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: NEON-style min/max lattice also holds for SSE2.
func TestQuickMinMaxEpu8(t *testing.T) {
	u := New(nil)
	f := func(a, b [16]uint8) bool {
		mn := u.MinEpu8(vec.FromU8x16(a), vec.FromU8x16(b))
		mx := u.MaxEpu8(vec.FromU8x16(a), vec.FromU8x16(b))
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
