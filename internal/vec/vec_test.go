package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLaneRoundTripsV128(t *testing.T) {
	var v V128
	for i := 0; i < 16; i++ {
		v.SetU8(i, uint8(i*7+3))
	}
	for i := 0; i < 16; i++ {
		if v.U8(i) != uint8(i*7+3) {
			t.Fatalf("u8 lane %d: got %d", i, v.U8(i))
		}
	}
	for i := 0; i < 8; i++ {
		v.SetI16(i, int16(-1000*i+5))
	}
	for i := 0; i < 8; i++ {
		if v.I16(i) != int16(-1000*i+5) {
			t.Fatalf("i16 lane %d: got %d", i, v.I16(i))
		}
	}
	for i := 0; i < 4; i++ {
		v.SetF32(i, float32(i)*1.5-2)
	}
	for i := 0; i < 4; i++ {
		if v.F32(i) != float32(i)*1.5-2 {
			t.Fatalf("f32 lane %d: got %v", i, v.F32(i))
		}
	}
	for i := 0; i < 2; i++ {
		v.SetF64(i, float64(i)+0.25)
	}
	for i := 0; i < 2; i++ {
		if v.F64(i) != float64(i)+0.25 {
			t.Fatalf("f64 lane %d: got %v", i, v.F64(i))
		}
	}
	v.SetI64(0, -42)
	v.SetU64(1, 1<<40)
	if v.I64(0) != -42 || v.U64(1) != 1<<40 {
		t.Fatalf("64-bit lanes: got %d %d", v.I64(0), v.U64(1))
	}
}

func TestLaneRoundTripsV64(t *testing.T) {
	var d V64
	for i := 0; i < 8; i++ {
		d.SetI8(i, int8(-i*3))
	}
	for i := 0; i < 8; i++ {
		if d.I8(i) != int8(-i*3) {
			t.Fatalf("i8 lane %d: got %d", i, d.I8(i))
		}
	}
	for i := 0; i < 4; i++ {
		d.SetU16(i, uint16(i*1000))
	}
	for i := 0; i < 4; i++ {
		if d.U16(i) != uint16(i*1000) {
			t.Fatalf("u16 lane %d: got %d", i, d.U16(i))
		}
	}
	d.SetF32(0, 3.5)
	d.SetF32(1, -7.25)
	if d.F32(0) != 3.5 || d.F32(1) != -7.25 {
		t.Fatalf("f32 lanes: %v %v", d.F32(0), d.F32(1))
	}
	d.SetI64(-99)
	if d.I64() != -99 {
		t.Fatalf("i64: %d", d.I64())
	}
}

func TestLittleEndianLayout(t *testing.T) {
	// Writing a 32-bit lane must land its least-significant byte at the
	// lowest address, as on real ARM/x86.
	var v V128
	v.SetU32(0, 0x04030201)
	for i := 0; i < 4; i++ {
		if v.U8(i) != uint8(i+1) {
			t.Fatalf("byte %d: got %#x", i, v.U8(i))
		}
	}
	// Reinterpreting lanes must match hardware semantics: two u16 lanes
	// read from one u32 write.
	if v.U16(0) != 0x0201 || v.U16(1) != 0x0403 {
		t.Fatalf("u16 reinterpret: %#x %#x", v.U16(0), v.U16(1))
	}
}

func TestCombineLowHigh(t *testing.T) {
	lo := FromI16x4([4]int16{1, 2, 3, 4})
	hi := FromI16x4([4]int16{5, 6, 7, 8})
	q := Combine(lo, hi)
	want := [8]int16{1, 2, 3, 4, 5, 6, 7, 8}
	if q.ToI16x8() != want {
		t.Fatalf("combine: got %v", q.ToI16x8())
	}
	if q.Low() != lo || q.High() != hi {
		t.Fatalf("low/high roundtrip failed")
	}
}

func TestConstructorsExtractors(t *testing.T) {
	u8 := [16]uint8{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	if FromU8x16(u8).ToU8x16() != u8 {
		t.Error("u8x16 roundtrip")
	}
	i8 := [16]int8{-8, -7, -6, -5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5, 6, 7}
	if FromI8x16(i8).ToI8x16() != i8 {
		t.Error("i8x16 roundtrip")
	}
	u16 := [8]uint16{0, 1, 65535, 3, 400, 5000, 60000, 7}
	if FromU16x8(u16).ToU16x8() != u16 {
		t.Error("u16x8 roundtrip")
	}
	i16 := [8]int16{-32768, 32767, 0, -1, 1, 100, -100, 9}
	if FromI16x8(i16).ToI16x8() != i16 {
		t.Error("i16x8 roundtrip")
	}
	u32 := [4]uint32{0, math.MaxUint32, 7, 1 << 31}
	if FromU32x4(u32).ToU32x4() != u32 {
		t.Error("u32x4 roundtrip")
	}
	i32 := [4]int32{math.MinInt32, math.MaxInt32, -1, 1}
	if FromI32x4(i32).ToI32x4() != i32 {
		t.Error("i32x4 roundtrip")
	}
	f32 := [4]float32{1.5, -2.25, 0, 1e20}
	if FromF32x4(f32).ToF32x4() != f32 {
		t.Error("f32x4 roundtrip")
	}
	f64 := [2]float64{math.Pi, -1e-300}
	if FromF64x2(f64).ToF64x2() != f64 {
		t.Error("f64x2 roundtrip")
	}
	i64 := [2]int64{math.MinInt64, math.MaxInt64}
	if FromI64x2(i64).ToI64x2() != i64 {
		t.Error("i64x2 roundtrip")
	}
	u64 := [2]uint64{0, math.MaxUint64}
	if FromU64x2(u64).ToU32x4() == ([4]uint32{}) {
		_ = u64 // layout checked below
	}
	d16 := [4]int16{-1, 2, -3, 4}
	if FromI16x4(d16).ToI16x4() != d16 {
		t.Error("i16x4 roundtrip")
	}
	d8 := [8]int8{-1, 2, -3, 4, -5, 6, -7, 8}
	if FromI8x8(d8).ToI8x8() != d8 {
		t.Error("i8x8 roundtrip")
	}
	du8 := [8]uint8{1, 2, 3, 4, 5, 6, 7, 8}
	if FromU8x8(du8).ToU8x8() != du8 {
		t.Error("u8x8 roundtrip")
	}
	du16 := [4]uint16{1, 2, 3, 65535}
	if FromU16x4(du16).ToU16x4() != du16 {
		t.Error("u16x4 roundtrip")
	}
	di32 := [2]int32{math.MinInt32, 77}
	if FromI32x2(di32).ToI32x2() != di32 {
		t.Error("i32x2 roundtrip")
	}
	du32 := [2]uint32{4e9, 1}
	if FromU32x2(du32).ToU32x2() != du32 {
		t.Error("u32x2 roundtrip")
	}
	df32 := [2]float32{-1.5, 2.5}
	if FromF32x2(df32).ToF32x2() != df32 {
		t.Error("f32x2 roundtrip")
	}
}

func TestLoadStore(t *testing.T) {
	buf := make([]byte, 32)
	for i := range buf {
		buf[i] = byte(i)
	}
	v := LoadV128(buf[4:])
	if v.U8(0) != 4 || v.U8(15) != 19 {
		t.Fatalf("LoadV128: %v", v)
	}
	out := make([]byte, 16)
	StoreV128(out, v)
	for i := range out {
		if out[i] != byte(i+4) {
			t.Fatalf("StoreV128 byte %d: %d", i, out[i])
		}
	}
	d := LoadV64(buf[8:])
	if d.U8(0) != 8 || d.U8(7) != 15 {
		t.Fatalf("LoadV64: %v", d)
	}
	out8 := make([]byte, 8)
	StoreV64(out8, d)
	for i := range out8 {
		if out8[i] != byte(i+8) {
			t.Fatalf("StoreV64 byte %d: %d", i, out8[i])
		}
	}
}

func TestLoadPanicsOnShortBuffer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on short buffer")
		}
	}()
	LoadV128(make([]byte, 15))
}

func TestBitwise(t *testing.T) {
	a := FromU32x4([4]uint32{0xFF00FF00, 0x0F0F0F0F, 0, 0xFFFFFFFF})
	b := FromU32x4([4]uint32{0x00FF00FF, 0xF0F0F0F0, 0xFFFFFFFF, 0xFFFFFFFF})
	if And(a, b).ToU32x4() != ([4]uint32{0, 0, 0, 0xFFFFFFFF}) {
		t.Error("And")
	}
	if Or(a, b).ToU32x4() != ([4]uint32{0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF}) {
		t.Error("Or")
	}
	if Xor(a, b).ToU32x4() != ([4]uint32{0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 0}) {
		t.Error("Xor")
	}
	if AndNot(a, b).ToU32x4() != ([4]uint32{0x00FF00FF, 0xF0F0F0F0, 0xFFFFFFFF, 0}) {
		t.Error("AndNot")
	}
	if Not(Zero()) != Ones() {
		t.Error("Not(0) != ones")
	}
}

func TestSelect(t *testing.T) {
	mask := FromU32x4([4]uint32{0xFFFFFFFF, 0, 0xFFFF0000, 0})
	a := FromU32x4([4]uint32{1, 2, 0xAAAA5555, 4})
	b := FromU32x4([4]uint32{10, 20, 0x1111BBBB, 40})
	got := Select(mask, a, b)
	want := [4]uint32{1, 20, 0xAAAABBBB, 40}
	if got.ToU32x4() != want {
		t.Fatalf("Select: got %v want %v", got.ToU32x4(), want)
	}
}

func TestString(t *testing.T) {
	v := Zero()
	v.SetU8(0, 0xAB)
	s := v.String()
	if len(s) == 0 || s[:5] != "V128{" {
		t.Fatalf("String: %q", s)
	}
	d := V64{}
	if d.String()[:4] != "V64{" {
		t.Fatalf("V64 String: %q", d.String())
	}
}

// Property: bitwise identities hold for arbitrary registers.
func TestQuickBitwiseIdentities(t *testing.T) {
	f := func(ab, bb [16]byte) bool {
		a, b := FromU8x16(ab), FromU8x16(bb)
		if Xor(a, a) != Zero() {
			return false
		}
		if And(a, Ones()) != a || Or(a, Zero()) != a {
			return false
		}
		// De Morgan.
		if Not(And(a, b)) != Or(Not(a), Not(b)) {
			return false
		}
		// vbsl with all-ones mask selects a; all-zeroes selects b.
		return Select(Ones(), a, b) == a && Select(Zero(), a, b) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Combine/Low/High are inverse bijections.
func TestQuickCombineRoundTrip(t *testing.T) {
	f := func(lo, hi [8]byte) bool {
		q := Combine(FromU8x8(lo), FromU8x8(hi))
		return q.Low() == FromU8x8(lo) && q.High() == FromU8x8(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: store then load is the identity.
func TestQuickLoadStoreRoundTrip(t *testing.T) {
	f := func(b [16]byte) bool {
		buf := make([]byte, 16)
		StoreV128(buf, FromU8x16(b))
		return LoadV128(buf) == FromU8x16(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLanesMatchByteLayout holds every lane getter and setter, at every
// width and index, to the little-endian byte layout ToU8x16/ToU8x8
// expose: lane i of a w-byte type is bytes i*w .. i*w+w-1, lowest first.
// The registers are words, so a lane must land in the right word at the
// right shift and leave every other byte alone.
func TestLanesMatchByteLayout(t *testing.T) {
	var base [16]uint8
	for i := range base {
		base[i] = uint8(0xA0 + i)
	}
	// lane reads bytes [off, off+w) of b as a little-endian value.
	lane := func(b []uint8, off, w int) uint64 {
		var x uint64
		for k := w - 1; k >= 0; k-- {
			x = x<<8 | uint64(b[off+k])
		}
		return x
	}
	x := uint64(0x0123456789ABCDEF)
	for _, w := range []int{1, 2, 4, 8} {
		mask := uint64(1)<<(8*w) - 1
		for i := 0; i < 16/w; i++ {
			v := FromU8x16(base)
			var got uint64
			switch w {
			case 1:
				got = uint64(v.U8(i))
				if uint64(uint8(v.I8(i))) != got {
					t.Fatalf("I8(%d) disagrees with U8", i)
				}
				v.SetU8(i, uint8(x))
			case 2:
				got = uint64(v.U16(i))
				if uint64(uint16(v.I16(i))) != got {
					t.Fatalf("I16(%d) disagrees with U16", i)
				}
				v.SetU16(i, uint16(x))
			case 4:
				got = uint64(v.U32(i))
				if uint64(uint32(v.I32(i))) != got || uint64(math.Float32bits(v.F32(i))) != got {
					t.Fatalf("I32/F32(%d) disagree with U32", i)
				}
				v.SetU32(i, uint32(x))
			case 8:
				got = v.U64(i)
				if uint64(v.I64(i)) != got || math.Float64bits(v.F64(i)) != got {
					t.Fatalf("I64/F64(%d) disagree with U64", i)
				}
				v.SetU64(i, x)
			}
			if want := lane(base[:], i*w, w); got != want {
				t.Fatalf("V128 width %d lane %d reads %#x, bytes hold %#x", w, i, got, want)
			}
			want := base
			for k := 0; k < w; k++ {
				want[i*w+k] = uint8(x & mask >> (8 * k))
			}
			if b := v.ToU8x16(); b != want {
				t.Fatalf("V128 width %d Set lane %d: bytes %x, want %x", w, i, b, want)
			}
			// The signed and float setters write the same bits.
			s := FromU8x16(base)
			switch w {
			case 1:
				s.SetI8(i, int8(x))
			case 2:
				s.SetI16(i, int16(x))
			case 4:
				s2 := s
				s.SetI32(i, int32(x))
				s2.SetF32(i, math.Float32frombits(uint32(x)))
				if s2 != s {
					t.Fatalf("SetF32(%d) disagrees with SetI32", i)
				}
			case 8:
				s2 := s
				s.SetI64(i, int64(x))
				s2.SetF64(i, math.Float64frombits(x))
				if s2 != s {
					t.Fatalf("SetF64(%d) disagrees with SetI64", i)
				}
			}
			if s != v {
				t.Fatalf("V128 width %d signed Set lane %d = %v, want %v", w, i, s, v)
			}
		}
		if w == 8 {
			continue
		}
		for i := 0; i < 8/w; i++ {
			var b8 [8]uint8
			copy(b8[:], base[:8])
			d := FromU8x8(b8)
			var got uint64
			switch w {
			case 1:
				got = uint64(d.U8(i))
				if uint64(uint8(d.I8(i))) != got {
					t.Fatalf("V64 I8(%d) disagrees with U8", i)
				}
				d.SetU8(i, uint8(x))
			case 2:
				got = uint64(d.U16(i))
				if uint64(uint16(d.I16(i))) != got {
					t.Fatalf("V64 I16(%d) disagrees with U16", i)
				}
				d.SetI16(i, int16(x))
			case 4:
				got = uint64(d.U32(i))
				if uint64(uint32(d.I32(i))) != got || uint64(math.Float32bits(d.F32(i))) != got {
					t.Fatalf("V64 I32/F32(%d) disagree with U32", i)
				}
				d.SetF32(i, math.Float32frombits(uint32(x)))
			}
			if want := lane(b8[:], i*w, w); got != want {
				t.Fatalf("V64 width %d lane %d reads %#x, bytes hold %#x", w, i, got, want)
			}
			want := b8
			for k := 0; k < w; k++ {
				want[i*w+k] = uint8(x & mask >> (8 * k))
			}
			if b := d.ToU8x8(); b != want {
				t.Fatalf("V64 width %d Set lane %d: bytes %x, want %x", w, i, b, want)
			}
		}
	}
	// The whole-register V64 accessors and the halves of a V128.
	v := FromU8x16(base)
	if got, want := v.Low().U64(), lane(base[:], 0, 8); got != want || uint64(v.Low().I64()) != want {
		t.Fatalf("Low = %#x, want %#x", got, want)
	}
	if got, want := v.High().U64(), lane(base[:], 8, 8); got != want {
		t.Fatalf("High = %#x, want %#x", got, want)
	}
	var d V64
	d.SetU64(x)
	if d.ToU8x8() != [8]uint8{0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01} {
		t.Fatalf("V64 SetU64 bytes %x", d.ToU8x8())
	}
	d.SetI64(-2)
	if d.U64() != math.MaxUint64-1 {
		t.Fatalf("V64 SetI64 = %#x", d.U64())
	}
}

// Property: MinMaxU8 is a lane-wise compare-exchange, the lower byte
// first, and agrees with MinU8 and MaxU8 of the same operands. Random
// words rarely tie or straddle the sign bit, so every byte pair with
// those edges is checked as well.
func TestQuickMinMaxU8(t *testing.T) {
	check := func(x, y [16]byte) bool {
		a, b := FromU8x16(x), FromU8x16(y)
		lo, hi := MinMaxU8(a, b)
		if lo != MinU8(a, b) || hi != MaxU8(a, b) {
			return false
		}
		for i := range x {
			if lo.U8(i) != min(x[i], y[i]) || hi.U8(i) != max(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
	edges := []byte{0, 1, 0x7E, 0x7F, 0x80, 0x81, 0xFE, 0xFF}
	for _, p := range edges {
		for _, q := range edges {
			var x, y [16]byte
			for i := range x {
				x[i], y[i] = p, q
				if i%3 == 1 {
					x[i], y[i] = q, p
				}
			}
			if !check(x, y) {
				t.Fatalf("MinMaxU8 of bytes %#x and %#x is not their compare-exchange", p, q)
			}
		}
	}
}

// TestQuickWideningU8: AddlU8, SublU8 and AddwU8, the word forms of
// vaddl.u8, vsubl.u8 and vaddw.u8, against their per-lane definitions, on
// random lanes and on every pairing of the byte edges (with 16-bit edges
// for vaddw's wide operand).
func TestQuickWideningU8(t *testing.T) {
	check := func(x, y [8]byte, z [8]uint16) bool {
		a, b, c := FromU8x8(x), FromU8x8(y), FromU16x8(z)
		l, d, w := AddlU8(a, b), SublU8(a, b), AddwU8(c, b)
		for i := range x {
			if l.U16(i) != uint16(x[i])+uint16(y[i]) || d.U16(i) != uint16(x[i])-uint16(y[i]) || w.U16(i) != z[i]+uint16(y[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
	edges := []byte{0, 0x7F, 0x80, 0xFF}
	wide := []uint16{0, 0x7F, 0x80, 0xFF, 0x7FFF, 0x8000, 0xFF01, 0xFFFF}
	for _, p := range edges {
		for _, q := range edges {
			var x, y [8]byte
			var z [8]uint16
			for i := range x {
				x[i], y[i], z[i] = p, q, wide[(i+int(p))%len(wide)]
				if i%3 == 1 {
					x[i], y[i] = q, p
				}
			}
			if !check(x, y, z) {
				t.Fatalf("widening ops of bytes %#x and %#x (wide %v) differ from their lanes", p, q, z)
			}
		}
	}
}

// splitChain runs the SSE2 Gaussian's tap chain on seven rows of eight
// bytes, once on split registers and once lane by lane as the
// instructions define it (punpcklbw against zero, pmullw, paddw, psrlw,
// packuswb of the result with itself), and reports whether SplitFits
// admits its operands.
func splitChain(rows [7][8]byte, taps [7]uint16, h uint16, n uint) (split, lanes [8]byte, fits bool) {
	var tv [7]V128
	for k := range taps {
		tv[k] = Splat16(taps[k])
	}
	hv := Splat16(h)
	fits = SplitFits(V128{}, tv[:], hv, n)
	acc := SplitMulU16(SplitU8(V128{Lo: FromU8x8(rows[0]).W}), tv[0])
	for k := 1; k < len(rows); k++ {
		acc = SplitAddU16(acc, SplitMulU16(SplitU8(V128{Lo: FromU8x8(rows[k]).W}), tv[k]))
	}
	p := SplitPackU8(ShrU16(SplitAddU16(acc, hv), n))
	if p.Hi != p.Lo {
		return split, lanes, fits // a self-pack repeats its low half
	}
	split = V64{p.Lo}.ToU8x8()
	for i := range lanes {
		s := h
		for k := range rows {
			s += uint16(rows[k][i]) * taps[k]
		}
		var v uint16
		if n < 16 {
			v = s >> n
		}
		lanes[i] = uint8(min(max(int16(v), 0), 255))
	}
	return split, lanes, fits
}

// TestQuickSplitChain: whenever SplitFits admits a chain's operands, the
// split chain writes the bytes of its per-lane definition: on random rows,
// taps, halves and shifts, and on rows of byte edges under the Gaussian's
// own taps and under taps at the row test's limit. SplitFits refuses a
// non-zero unpack operand, a tap of 256, a half that is no broadcast and
// a bound one past either limit.
func TestQuickSplitChain(t *testing.T) {
	admitted := 0
	check := func(rows [7][8]byte, raw [7]uint8, h uint16, n uint8) bool {
		var taps [7]uint16
		for k := range taps {
			taps[k] = uint16(raw[k] % 40)
		}
		split, lanes, fits := splitChain(rows, taps, h%2048, uint(n%12))
		if fits {
			admitted++
		}
		return !fits || split == lanes
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if admitted < 100 {
		t.Fatalf("SplitFits admitted only %d of 2000 random chains", admitted)
	}
	gauss := [7]uint16{1, 14, 62, 102, 62, 14, 1}
	limit := [7]uint16{255, 2, 0, 0, 0, 0, 0} // 255*257 = 65535 with h = 0
	for _, c := range []struct {
		taps [7]uint16
		h    uint16
		n    uint
	}{{gauss, 128, 8}, {limit, 0, 8}} {
		for _, p := range []byte{0, 0x7F, 0x80, 0xFF} {
			for _, q := range []byte{0, 0x7F, 0x80, 0xFF} {
				var rows [7][8]byte
				for k := range rows {
					for i := range rows[k] {
						rows[k][i] = p
						if (i+k)%2 == 1 {
							rows[k][i] = q
						}
					}
				}
				split, lanes, fits := splitChain(rows, c.taps, c.h, c.n)
				if !fits || split != lanes {
					t.Fatalf("taps %v, bytes %#x/%#x: fits %v, split %v, lanes %v", c.taps, p, q, fits, split, lanes)
				}
			}
		}
	}
	var taps [7]V128
	for k := range taps {
		taps[k] = Splat16(gauss[k])
	}
	half := Splat16(128)
	if !SplitFits(V128{}, taps[:], half, 8) {
		t.Fatal("SplitFits refuses the Gaussian's taps")
	}
	over := taps
	over[3] = Splat16(256)
	skew := half
	skew.Hi ^= 1 << 16
	for name, ok := range map[string]bool{
		"a non-zero unpack operand":   SplitFits(Splat8(1), taps[:], half, 8),
		"a tap of 256":                SplitFits(V128{}, over[:], half, 8),
		"a half that is no broadcast": SplitFits(V128{}, taps[:], skew, 8),
		"a lane reaching 2^16":        SplitFits(V128{}, []V128{Splat16(255), Splat16(2)}, Splat16(1), 8),
		"a shifted lane reaching 2^8": SplitFits(V128{}, taps[:], half, 7),
	} {
		if ok {
			t.Errorf("SplitFits admits %s", name)
		}
	}
}

// TestSSE2IdiomsMatchLaneForms: the two SSE2 spellings cmd/lanegen runs as
// one lane form are that form on every input. The sign-mask absolute
// value (psraw 15, pxor, psubsw) is AbsSatI16 on every int16 lane value;
// packing a 16-bit compare mask with itself (packsswb) is the truncating
// narrow, on masks of every lane pattern.
func TestSSE2IdiomsMatchLaneForms(t *testing.T) {
	for x := math.MinInt16; x <= math.MaxInt16; x += 8 {
		var v V128
		for i := 0; i < 8; i++ {
			v.SetI16(i, int16(x+i))
		}
		sign := SarI16(v, 15)
		if got, want := SubSatI16(Xor(v, sign), sign), AbsSatI16(v); got != want {
			t.Fatalf("lanes from %d: sign-mask abs %v, AbsSatI16 %v", x, got, want)
		}
	}
	for bits := 0; bits < 256; bits++ {
		var a, b V128
		for i := 0; i < 8; i++ {
			a.SetI16(i, int16(i*4099-15000))
			b.SetI16(i, int16(i*4099-15000+bits>>i&1))
		}
		for _, m := range []V128{GtI16(a, b), GtI16(b, a), EqU16(a, b)} {
			if got, want := Combine(NarrowU16(m), NarrowU16(m)), Combine(SatI8I16(m), SatI8I16(m)); got != want {
				t.Fatalf("mask %v: narrow %v, packsswb %v", m, got, want)
			}
		}
	}
}
