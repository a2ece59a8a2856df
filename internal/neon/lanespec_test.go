package neon

import (
	"math"
	"math/rand"
	"testing"

	"simdstudy/internal/vec"
)

// The lane spec: the intrinsics whose emulation takes a fast path chosen
// by testing an operand (a broadcast multiplier, a word-at-a-time convert
// or narrow), each written a second time lane by lane in the manner of the
// Arm ARM pseudocode (Elem[], UInt, SInt, SignedSat, FPToFixed) with plain
// Go integers, never with vec's word helpers. FuzzNEONLaneSpec and
// TestLaneOpsMatchReference hold the *Unit methods to it; FuzzNEONLanes
// holds the generated Lanes methods to the *Unit methods.

// specArgs are one spec case's operands: three registers and a shift
// immediate in 0..16.
type specArgs struct {
	a, b, c vec.V128
	n       uint
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
// the rest fills the registers and the immediate, cycling.
func specOperands(data []byte) specArgs {
	if len(data) == 0 {
		return specArgs{}
	}
	r := laneOperands{data: data[1:]}
	reg := func() vec.V128 { return vec.V128{Lo: r.bits(8), Hi: r.bits(8)} }
	x := specArgs{a: reg(), b: reg(), c: reg(), n: uint(r.byte() % 17)}
	switch int(data[0]) % bForms {
	case bSplat8:
		x.b = vec.Splat8(x.b.U8(0))
	case bSplat16:
		x.b = vec.Splat16(x.b.U16(0))
	case bZero:
		x.b = vec.Zero()
	case bSame:
		x.b = x.a
	case bNearSplat8, bNearSplat16:
		if int(data[0])%bForms == bNearSplat8 {
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
// same result computed lane by lane. A D-register result fills the low
// half of the V128 both return.
type laneSpec struct {
	name string
	unit func(u *Unit, x specArgs) vec.V128
	spec func(x specArgs) vec.V128
}

// signedSat16 is SignedSatQ(x, 16).
func signedSat16(x int64) int16 {
	if x > math.MaxInt16 {
		return math.MaxInt16
	}
	if x < math.MinInt16 {
		return math.MinInt16
	}
	return int16(x)
}

// fpToFixedS32 is FPToFixed(x, 0, unsigned=FALSE, FPRounding_ZERO) for a
// 32-bit result: NaN converts to zero, and out-of-range values saturate.
func fpToFixedS32(x float32) int32 {
	if x != x {
		return 0
	}
	t := math.Trunc(float64(x))
	if t > math.MaxInt32 {
		return math.MaxInt32
	}
	if t < math.MinInt32 {
		return math.MinInt32
	}
	return int32(t)
}

// rshr is (UInt(x) + (1 << (n-1))) >> n, the vrshr/vrshrn element step;
// n = 0 leaves x unchanged.
func rshr(x uint16, n uint) uint32 {
	if n == 0 {
		return uint32(x)
	}
	return (uint32(x) + 1<<(n-1)) >> n
}

var neonSpecs = []laneSpec{
	{"VmullU8",
		func(u *Unit, x specArgs) vec.V128 { return u.VmullU8(x.a.Low(), x.b.Low()) },
		func(x specArgs) vec.V128 {
			a, b := x.a.ToU8x16(), x.b.ToU8x16()
			var d [8]uint16
			for e := range d {
				d[e] = uint16(a[e]) * uint16(b[e])
			}
			return vec.FromU16x8(d)
		}},
	{"VmlalU8",
		func(u *Unit, x specArgs) vec.V128 { return u.VmlalU8(x.c, x.a.Low(), x.b.Low()) },
		func(x specArgs) vec.V128 {
			a, b, d := x.a.ToU8x16(), x.b.ToU8x16(), x.c.ToU16x8()
			for e := range d {
				d[e] += uint16(a[e]) * uint16(b[e])
			}
			return vec.FromU16x8(d)
		}},
	{"VmulqS16", func(u *Unit, x specArgs) vec.V128 { return u.VmulqS16(x.a, x.b) }, mulSpec},
	{"VmulqNS16",
		func(u *Unit, x specArgs) vec.V128 { return u.VmulqNS16(x.a, x.b.I16(0)) },
		func(x specArgs) vec.V128 { return mulSpec(specArgs{a: x.a, b: vec.Splat16(x.b.U16(0))}) }},
	{"VmulqNU16",
		func(u *Unit, x specArgs) vec.V128 { return u.VmulqNU16(x.a, x.b.U16(0)) },
		func(x specArgs) vec.V128 { return mulSpec(specArgs{a: x.a, b: vec.Splat16(x.b.U16(0))}) }},
	{"VmlaqS16", func(u *Unit, x specArgs) vec.V128 { return u.VmlaqS16(x.c, x.a, x.b) }, mlaSpec},
	{"VmlaqNS16",
		func(u *Unit, x specArgs) vec.V128 { return u.VmlaqNS16(x.c, x.a, x.b.I16(0)) },
		func(x specArgs) vec.V128 { return mlaSpec(specArgs{a: x.a, b: vec.Splat16(x.b.U16(0)), c: x.c}) }},
	{"VmlaqNU16",
		func(u *Unit, x specArgs) vec.V128 { return u.VmlaqNU16(x.c, x.a, x.b.U16(0)) },
		func(x specArgs) vec.V128 { return mlaSpec(specArgs{a: x.a, b: vec.Splat16(x.b.U16(0)), c: x.c}) }},
	{"VcvtqS32F32",
		func(u *Unit, x specArgs) vec.V128 { return u.VcvtqS32F32(x.a) },
		func(x specArgs) vec.V128 {
			var d [4]int32
			for e, f := range x.a.ToF32x4() {
				d[e] = fpToFixedS32(f)
			}
			return vec.FromI32x4(d)
		}},
	{"VqmovnS32",
		func(u *Unit, x specArgs) vec.V128 { return vec.Combine(u.VqmovnS32(x.a), vec.V64{}) },
		func(x specArgs) vec.V128 {
			var d [8]int16
			for e, v := range x.a.ToI32x4() {
				d[e] = signedSat16(int64(v))
			}
			return vec.FromI16x8(d)
		}},
	{"VrshrnNU16",
		func(u *Unit, x specArgs) vec.V128 { return vec.Combine(u.VrshrnNU16(x.a, x.n), vec.V64{}) },
		func(x specArgs) vec.V128 {
			var d [16]uint8
			for e, v := range x.a.ToU16x8() {
				d[e] = uint8(rshr(v, x.n))
			}
			return vec.FromU8x16(d)
		}},
	{"VrshrqNU16",
		func(u *Unit, x specArgs) vec.V128 { return u.VrshrqNU16(x.a, x.n) },
		func(x specArgs) vec.V128 {
			var d [8]uint16
			for e, v := range x.a.ToU16x8() {
				d[e] = uint16(rshr(v, x.n))
			}
			return vec.FromU16x8(d)
		}},
	// The Sobel and gradient-magnitude ops the lane twins run.
	{"VaddlU8",
		func(u *Unit, x specArgs) vec.V128 { return u.VaddlU8(x.a.Low(), x.b.Low()) },
		func(x specArgs) vec.V128 {
			a, b := x.a.ToU8x16(), x.b.ToU8x16()
			var d [8]uint16
			for e := range d {
				d[e] = uint16(a[e]) + uint16(b[e])
			}
			return vec.FromU16x8(d)
		}},
	{"VsublU8",
		func(u *Unit, x specArgs) vec.V128 { return u.VsublU8(x.a.Low(), x.b.Low()) },
		func(x specArgs) vec.V128 {
			a, b := x.a.ToU8x16(), x.b.ToU8x16()
			var d [8]int16
			for e := range d {
				d[e] = int16(int32(a[e]) - int32(b[e]))
			}
			return vec.FromI16x8(d)
		}},
	{"VaddwU8",
		func(u *Unit, x specArgs) vec.V128 { return u.VaddwU8(x.c, x.a.Low()) },
		func(x specArgs) vec.V128 {
			a, d := x.a.ToU8x16(), x.c.ToU16x8()
			for e := range d {
				d[e] += uint16(a[e])
			}
			return vec.FromU16x8(d)
		}},
	{"VqabsqS16",
		func(u *Unit, x specArgs) vec.V128 { return u.VqabsqS16(x.a) },
		func(x specArgs) vec.V128 {
			d := x.a.ToI16x8()
			for e, v := range d {
				a := int64(v)
				if a < 0 {
					a = -a
				}
				d[e] = signedSat16(a)
			}
			return vec.FromI16x8(d)
		}},
	{"Vld1qS16",
		func(u *Unit, x specArgs) vec.V128 {
			a, b := x.a.ToI16x8(), x.b.ToI16x8()
			return u.Vld1qS16(append(a[:], b[:]...))
		},
		func(x specArgs) vec.V128 { return x.a }},
	{"Vst1qS16",
		func(u *Unit, x specArgs) vec.V128 {
			var buf [10]int16
			for i := range buf {
				buf[i] = -0x5A5B
			}
			u.Vst1qS16(buf[1:], x.a)
			r := vec.FromI16x8([8]int16(buf[1:9]))
			if buf[0] != -0x5A5B || buf[9] != -0x5A5B {
				r.SetI16(0, ^r.I16(0)) // a store outside its eight elements
			}
			return r
		},
		func(x specArgs) vec.V128 { return x.a }},
}

// mulSpec is vmul.i16: the low 16 bits of each lane product.
func mulSpec(x specArgs) vec.V128 {
	a, b := x.a.ToI16x8(), x.b.ToI16x8()
	var d [8]int16
	for e := range d {
		d[e] = int16(int32(a[e]) * int32(b[e]))
	}
	return vec.FromI16x8(d)
}

// mlaSpec is vmla.i16: c + a*b in each lane, wrapping.
func mlaSpec(x specArgs) vec.V128 {
	a, b, d := x.a.ToI16x8(), x.b.ToI16x8(), x.c.ToI16x8()
	for e := range d {
		d[e] = int16(int32(d[e]) + int32(a[e])*int32(b[e]))
	}
	return vec.FromI16x8(d)
}

// checkLaneSpecs runs every spec case on the operands data encodes.
func checkLaneSpecs(t *testing.T, data []byte) {
	t.Helper()
	x := specOperands(data)
	u := New(nil)
	for _, s := range neonSpecs {
		if got, want := s.unit(u, x), s.spec(x); got != want {
			t.Fatalf("%s(a=%v b=%v c=%v n=%d) = %v, spec %v", s.name, x.a, x.b, x.c, x.n, got, want)
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
				for len(seed) < 1+48 {
					seed = append(seed, edge[:]...)
				}
				out = append(out, append(seed, n))
			}
		}
	}
	return out
}

// FuzzNEONLaneSpec is the differential check of the fast-path intrinsics
// against their lane spec.
func FuzzNEONLaneSpec(f *testing.F) {
	for _, seed := range specCorpus() {
		f.Add(seed)
	}
	f.Fuzz(checkLaneSpecs)
}

// testLaneSpec runs the spec cases over the seed corpus and 20,000 seeded
// random operand sets, and the u8 broadcast multiplies over every
// (byte, broadcast byte) pair in every lane.
func testLaneSpec(t *testing.T) {
	for _, data := range specCorpus() {
		checkLaneSpecs(t, data)
	}
	rng := rand.New(rand.NewSource(27))
	data := make([]byte, 53)
	for i := 0; i < 20000; i++ {
		rng.Read(data)
		checkLaneSpecs(t, data)
	}
	u := New(nil)
	acc := vec.FromU16x8([8]uint16{0, 1, 0x7FFF, 0x8000, 0xFFFF, 0xFF00, 0x00FF, 0x1234})
	for c := 0; c < 256; c++ {
		for base := 0; base < 256; base += 8 {
			var a [16]uint8
			for l := range a {
				a[l] = uint8(base + l)
			}
			x := specArgs{a: vec.FromU8x16(a), b: vec.Splat8(uint8(c)), c: acc}
			for _, s := range neonSpecs {
				if s.name != "VmullU8" && s.name != "VmlalU8" {
					continue
				}
				if got, want := s.unit(u, x), s.spec(x); got != want {
					t.Fatalf("%s(a=%v, broadcast %#x) = %v, spec %v", s.name, x.a, c, got, want)
				}
			}
		}
	}
}
