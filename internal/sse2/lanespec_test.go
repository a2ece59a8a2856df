package sse2

import (
	"math"
	"math/rand"
	"testing"

	"simdstudy/internal/vec"
)

// The lane spec: the intrinsics whose emulation takes a fast path chosen
// by testing an operand (a broadcast multiplier, a zero or repeated
// operand, a word-at-a-time convert or pack), each written a second time
// element by element in the manner of the Intel SDM's Operation sections
// (SignedSaturate, UnsignedSaturate, Convert_Single_To_Integer) with plain
// Go integers, never with vec's word helpers. FuzzSSE2LaneSpec and
// TestLaneOpsMatchReference hold the *Unit methods to it; FuzzSSE2Lanes
// holds the generated Lanes methods to the *Unit methods.

// specArgs are one spec case's operands: two registers and a shift count
// in 0..16.
type specArgs struct {
	a, b vec.V128
	n    uint
}

// The forms of the second operand b. Each fast path tests b, so the
// operands must reach both sides of every test: a broadcast and a
// near-broadcast (one byte changed), zero, and b equal to a.
const (
	bRaw = iota
	bSplat8
	bSplat16
	bZero
	bSame
	bNearSplat8
	bNearSplat16
	bForms
)

// specOperands draws a spec case from fuzz input: data[0] picks b's form,
// the rest fills the registers and the shift count, cycling.
func specOperands(data []byte) specArgs {
	if len(data) == 0 {
		return specArgs{}
	}
	r := laneOperands{data: data[1:]}
	reg := func() vec.V128 { return vec.V128{Lo: r.bits(8), Hi: r.bits(8)} }
	x := specArgs{a: reg(), b: reg(), n: uint(r.byte() % 17)}
	switch form := int(data[0]) % bForms; form {
	case bSplat8:
		x.b = vec.Splat8(x.b.U8(0))
	case bSplat16:
		x.b = vec.Splat16(x.b.U16(0))
	case bZero:
		x.b = vec.Zero()
	case bSame:
		x.b = x.a
	case bNearSplat8, bNearSplat16:
		if form == bNearSplat8 {
			x.b = vec.Splat8(x.b.U8(0))
		} else {
			x.b = vec.Splat16(x.b.U16(0))
		}
		i := int(r.byte() % 16)
		x.b.SetU8(i, x.b.U8(i)^(1+r.byte()%255))
	}
	return x
}

// laneSpec is one intrinsic: its *Unit method on the operands, and the
// same result computed element by element.
type laneSpec struct {
	name string
	unit func(u *Unit, x specArgs) vec.V128
	spec func(x specArgs) vec.V128
}

// signedSaturate16 is SignedSaturate(x) to a word.
func signedSaturate16(x int32) int16 {
	if x > math.MaxInt16 {
		return math.MaxInt16
	}
	if x < math.MinInt16 {
		return math.MinInt16
	}
	return int16(x)
}

// unsignedSaturate8 is UnsignedSaturate(x) of a signed word to a byte.
func unsignedSaturate8(x int16) uint8 {
	if x > math.MaxUint8 {
		return math.MaxUint8
	}
	if x < 0 {
		return 0
	}
	return uint8(x)
}

// cvtSingleToInt32 is Convert_Single_Precision_Floating_Point_To_Integer
// under the default MXCSR rounding, round to nearest even: NaN and
// results outside int32 give the integer indefinite 0x80000000.
func cvtSingleToInt32(x float32) int32 {
	r := math.RoundToEven(float64(x))
	if r != r || r > math.MaxInt32 || r < math.MinInt32 {
		return math.MinInt32
	}
	return int32(r)
}

// unpack is punpcklbw (half 0) or punpckhbw (half 1): the bytes of one
// half of a and b, interleaved a first.
func unpack(x specArgs, half int) vec.V128 {
	a, b := x.a.ToU8x16(), x.b.ToU8x16()
	var d [16]uint8
	for e := 0; e < 8; e++ {
		d[2*e] = a[8*half+e]
		d[2*e+1] = b[8*half+e]
	}
	return vec.FromU8x16(d)
}

var sse2Specs = []laneSpec{
	{"MulloEpi16",
		func(u *Unit, x specArgs) vec.V128 { return u.MulloEpi16(x.a, x.b) },
		func(x specArgs) vec.V128 {
			a, b := x.a.ToI16x8(), x.b.ToI16x8()
			var d [8]int16
			for e := range d {
				d[e] = int16(int32(a[e]) * int32(b[e]))
			}
			return vec.FromI16x8(d)
		}},
	{"UnpackloEpi8",
		func(u *Unit, x specArgs) vec.V128 { return u.UnpackloEpi8(x.a, x.b) },
		func(x specArgs) vec.V128 { return unpack(x, 0) }},
	{"UnpackhiEpi8",
		func(u *Unit, x specArgs) vec.V128 { return u.UnpackhiEpi8(x.a, x.b) },
		func(x specArgs) vec.V128 { return unpack(x, 1) }},
	{"CvtpsEpi32",
		func(u *Unit, x specArgs) vec.V128 { return u.CvtpsEpi32(x.a) },
		func(x specArgs) vec.V128 {
			var d [4]int32
			for e, f := range x.a.ToF32x4() {
				d[e] = cvtSingleToInt32(f)
			}
			return vec.FromI32x4(d)
		}},
	{"PacksEpi32",
		func(u *Unit, x specArgs) vec.V128 { return u.PacksEpi32(x.a, x.b) },
		func(x specArgs) vec.V128 {
			a, b := x.a.ToI32x4(), x.b.ToI32x4()
			var d [8]int16
			for e := 0; e < 4; e++ {
				d[e] = signedSaturate16(a[e])
				d[4+e] = signedSaturate16(b[e])
			}
			return vec.FromI16x8(d)
		}},
	{"PackusEpi16",
		func(u *Unit, x specArgs) vec.V128 { return u.PackusEpi16(x.a, x.b) },
		func(x specArgs) vec.V128 {
			a, b := x.a.ToI16x8(), x.b.ToI16x8()
			var d [16]uint8
			for e := 0; e < 8; e++ {
				d[e] = unsignedSaturate8(a[e])
				d[8+e] = unsignedSaturate8(b[e])
			}
			return vec.FromU8x16(d)
		}},
	// The Sobel and gradient-magnitude ops the lane twins run.
	{"PacksEpi16",
		func(u *Unit, x specArgs) vec.V128 { return u.PacksEpi16(x.a, x.b) },
		func(x specArgs) vec.V128 {
			a, b := x.a.ToI16x8(), x.b.ToI16x8()
			var d [16]uint8
			for e := 0; e < 8; e++ {
				d[e] = uint8(signedSaturate8(a[e]))
				d[8+e] = uint8(signedSaturate8(b[e]))
			}
			return vec.FromU8x16(d)
		}},
	{"SraiEpi16",
		func(u *Unit, x specArgs) vec.V128 { return u.SraiEpi16(x.a, x.n) },
		func(x specArgs) vec.V128 {
			d := x.a.ToI16x8()
			for e, v := range d {
				n := min(x.n, 15) // counts past 15 fill with the sign bit
				d[e] = int16(int32(v) >> n)
			}
			return vec.FromI16x8(d)
		}},
	{"LoaduSi128S16",
		func(u *Unit, x specArgs) vec.V128 {
			a, b := x.a.ToI16x8(), x.b.ToI16x8()
			return u.LoaduSi128S16(append(a[:], b[:]...))
		},
		func(x specArgs) vec.V128 { return x.a }},
	{"StoreuSi128S16",
		func(u *Unit, x specArgs) vec.V128 {
			var buf [10]int16
			for i := range buf {
				buf[i] = -0x5A5B
			}
			u.StoreuSi128S16(buf[1:], x.a)
			r := vec.FromI16x8([8]int16(buf[1:9]))
			if buf[0] != -0x5A5B || buf[9] != -0x5A5B {
				r.SetI16(0, ^r.I16(0)) // a store outside its eight elements
			}
			return r
		},
		func(x specArgs) vec.V128 { return x.a }},
}

// signedSaturate8 is SignedSaturate(x) of a word to a byte.
func signedSaturate8(x int16) int8 {
	if x > math.MaxInt8 {
		return math.MaxInt8
	}
	if x < math.MinInt8 {
		return math.MinInt8
	}
	return int8(x)
}

// checkLaneSpecs runs every spec case on the operands data encodes.
func checkLaneSpecs(t *testing.T, data []byte) {
	t.Helper()
	x := specOperands(data)
	u := New(nil)
	for _, s := range sse2Specs {
		if got, want := s.unit(u, x), s.spec(x); got != want {
			t.Fatalf("%s(a=%v b=%v n=%d) = %v, spec %v", s.name, x.a, x.b, x.n, got, want)
		}
	}
}

// specSeeds are the operand patterns the corpus starts from, each
// repeated across the registers: the integer edges 0, 0xFF, 0x7FFF,
// 0x8000, 0xFFFF; float32 ±0.5, ±1.5 and 2.5 (ties under round to even),
// NaN, ±Inf, ±2^31 and 3e9 (out of int32); and a mixed one.
var specSeeds = [][]byte{
	{0x00}, {0xFF}, {0xFF, 0x7F}, {0x00, 0x80}, {0xFF, 0xFF}, {0x7F, 0x00, 0x80, 0xFF},
	{0x00, 0x00, 0x00, 0x3F}, {0x00, 0x00, 0x00, 0xBF}, {0x00, 0x00, 0xC0, 0x3F}, {0x00, 0x00, 0xC0, 0xBF},
	{0x00, 0x00, 0x20, 0x40}, {0x00, 0x00, 0xC0, 0x7F}, {0x00, 0x00, 0x80, 0x7F}, {0x00, 0x00, 0x80, 0xFF},
	{0x00, 0x00, 0x00, 0x4F}, {0x00, 0x00, 0x00, 0xCF}, {0x5E, 0xD0, 0x32, 0x4F},
	{0x01, 0xFF, 0x10, 0x0F, 0x00, 0x80, 0xFF, 0x7F, 0x00, 0x00, 0x00, 0x3F, 0x00, 0x00, 0xC0, 0x7F},
}

// specCorpus is every seed pattern under every form of b, and the 16-bit
// edges 0x7FFF, 0x8000, 0x00FF and 0xFFFF filling the registers with each
// of the shift counts 0, 15 and 16.
func specCorpus() [][]byte {
	var out [][]byte
	for _, p := range specSeeds {
		for form := 0; form < bForms; form++ {
			out = append(out, append([]byte{byte(form)}, p...))
		}
	}
	for _, edge := range [][2]byte{{0xFF, 0x7F}, {0x00, 0x80}, {0xFF, 0x00}, {0xFF, 0xFF}} {
		for _, n := range []byte{0, 15, 16} {
			for form := 0; form < bForms; form++ {
				seed := []byte{byte(form)}
				for len(seed) < 1+32 {
					seed = append(seed, edge[:]...)
				}
				out = append(out, append(seed, n))
			}
		}
	}
	return out
}

// FuzzSSE2LaneSpec is the differential check of the fast-path intrinsics
// against their lane spec.
func FuzzSSE2LaneSpec(f *testing.F) {
	for _, seed := range specCorpus() {
		f.Add(seed)
	}
	f.Fuzz(checkLaneSpecs)
}

// testLaneSpec runs the spec cases over the seed corpus and 20,000 seeded
// random operand sets, and pmullw by a broadcast over every int16
// boundary multiplier against every wordPairs operand.
func testLaneSpec(t *testing.T) {
	for _, data := range specCorpus() {
		checkLaneSpecs(t, data)
	}
	rng := rand.New(rand.NewSource(27))
	data := make([]byte, 34)
	for i := 0; i < 20000; i++ {
		rng.Read(data)
		checkLaneSpecs(t, data)
	}
	for _, s := range wordBoundaries {
		b := vec.Splat16(uint16(s))
		checkWordPairs(t, "MulloEpi16 by broadcast", func(a, _ vec.V128) vec.V128 { return New(nil).MulloEpi16(a, b) },
			func(x, _ int16) int16 { return x * s })
	}
}
