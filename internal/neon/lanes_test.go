package neon

import (
	"math"
	"math/rand"
	"testing"

	"simdstudy/internal/vec"
)

// The lane ops compute with masks and SWAR words rather than a branch per
// lane. These tests hold each one to a plain per-lane reference written
// with ifs, so the arithmetic cannot drift from the instruction it models.

// forBytePairs calls f with registers holding all 65,536 (x, y) byte pairs,
// sixteen per call. The first pass packs consecutive pairs; the second
// scatters them (an odd multiplier permutes the 16-bit pair index), so
// every pair also meets other neighbours in another lane and a carry or
// borrow leaking across lanes shows.
func forBytePairs(f func(a, b vec.V128)) {
	for _, mul := range []int{1, 0x9E37} {
		for base := 0; base < 1<<16; base += 16 {
			var a, b [16]uint8
			for l := range a {
				p := (base + l) * mul & 0xFFFF
				a[l], b[l] = uint8(p>>8), uint8(p)
			}
			f(vec.FromU8x16(a), vec.FromU8x16(b))
		}
	}
}

// checkBytePairs runs a lane-wise byte op over every byte pair.
func checkBytePairs(t *testing.T, name string, op func(a, b vec.V128) vec.V128, ref func(x, y uint8) uint8) {
	t.Helper()
	forBytePairs(func(a, b vec.V128) {
		r := op(a, b)
		for l := 0; l < 16; l++ {
			if want := ref(a.U8(l), b.U8(l)); r.U8(l) != want {
				t.Fatalf("%s(%d, %d) lane %d = %#x, want %#x", name, a.U8(l), b.U8(l), l, r.U8(l), want)
			}
		}
	})
}

// wordBoundaries are the int16 values where a widening, wrapping or
// saturating rewrite would go wrong.
var wordBoundaries = []int16{math.MinInt16, math.MinInt16 + 1, -1, 0, 1, math.MaxInt16 - 1, math.MaxInt16}

// wordPairs are the int16 operand pairs the word tests run: every pair of
// wordBoundaries, then 10^5 seeded random pairs. The 49 boundary pairs
// repeat eight times; 49 is one more than a multiple of eight, so each
// repetition lands every boundary pair one lane further on and each one
// meets every lane, with a carry or borrow at every lane boundary.
var wordPairs = func() (p [][2]int16) {
	for rep := 0; rep < 8; rep++ {
		for _, x := range wordBoundaries {
			for _, y := range wordBoundaries {
				p = append(p, [2]int16{x, y})
			}
		}
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 100000; i++ {
		p = append(p, [2]int16{int16(rng.Uint32()), int16(rng.Uint32())})
	}
	return p
}()

// forWordPairs calls f with registers holding wordPairs, eight per call.
func forWordPairs(f func(a, b vec.V128)) {
	for base := 0; base < len(wordPairs); base += 8 {
		var a, b vec.V128
		for l := 0; l < 8; l++ {
			p := wordPairs[(base+l)%len(wordPairs)]
			a.SetI16(l, p[0])
			b.SetI16(l, p[1])
		}
		f(a, b)
	}
}

// checkWordPairs runs a lane-wise int16 op over wordPairs.
func checkWordPairs(t *testing.T, name string, op func(a, b vec.V128) vec.V128, ref func(x, y int16) int16) {
	t.Helper()
	forWordPairs(func(a, b vec.V128) {
		r := op(a, b)
		for l := 0; l < 8; l++ {
			x, y := a.I16(l), b.I16(l)
			if want := ref(x, y); r.I16(l) != want {
				t.Fatalf("%s(%d, %d) lane %d = %d, want %d", name, x, y, l, r.I16(l), want)
			}
		}
	})
}

// checkWordNarrow runs an int16-to-byte narrowing op over both operands
// of wordPairs.
func checkWordNarrow(t *testing.T, name string, op func(a vec.V128) vec.V64, ref func(x int16) uint8) {
	t.Helper()
	forWordPairs(func(a, b vec.V128) {
		for _, v := range []vec.V128{a, b} {
			r := op(v)
			for l := 0; l < 8; l++ {
				if want := ref(v.I16(l)); r.U8(l) != want {
					t.Fatalf("%s(%d) lane %d = %#x, want %#x", name, v.I16(l), l, r.U8(l), want)
				}
			}
		}
	})
}

// checkByteWiden runs a widening op on byte D registers over every byte
// pair, both halves of each forBytePairs register.
func checkByteWiden(t *testing.T, name string, op func(a, b vec.V64) vec.V128, ref func(x, y uint8) uint16) {
	t.Helper()
	forBytePairs(func(a, b vec.V128) {
		for _, h := range [][2]vec.V64{{a.Low(), b.Low()}, {a.High(), b.High()}} {
			r := op(h[0], h[1])
			for l := 0; l < 8; l++ {
				x, y := h[0].U8(l), h[1].U8(l)
				if want := ref(x, y); r.U16(l) != want {
					t.Fatalf("%s(%d, %d) lane %d = %#x, want %#x", name, x, y, l, r.U16(l), want)
				}
			}
		}
	})
}

// shiftCounts are the immediate shift counts the shift tests sweep.
var shiftCounts = []uint{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}

func satI16(v int32) int16 { return int16(max(math.MinInt16, min(math.MaxInt16, v))) }

func ifMask8(c bool) uint8 {
	if c {
		return 0xFF
	}
	return 0
}

func ifMask16(c bool) int16 {
	if c {
		return -1
	}
	return 0
}

func TestLaneOpsMatchReference(t *testing.T) {
	u := New(nil)
	t.Run("u8", func(t *testing.T) {
		checkBytePairs(t, "VminqU8", u.VminqU8, func(x, y uint8) uint8 {
			if x < y {
				return x
			}
			return y
		})
		checkBytePairs(t, "VmaxqU8", u.VmaxqU8, func(x, y uint8) uint8 {
			if x > y {
				return x
			}
			return y
		})
		checkBytePairs(t, "VabdqU8", u.VabdqU8, func(x, y uint8) uint8 {
			if x > y {
				return x - y
			}
			return y - x
		})
		checkBytePairs(t, "VabaqU8", func(a, b vec.V128) vec.V128 { return u.VabaqU8(a, a, b) },
			func(x, y uint8) uint8 {
				if x > y {
					return x + x - y
				}
				return x + y - x
			})
		checkBytePairs(t, "VtstqU8", u.VtstqU8, func(x, y uint8) uint8 { return ifMask8(x&y != 0) })
		checkBytePairs(t, "VcgtqU8", u.VcgtqU8, func(x, y uint8) uint8 { return ifMask8(x > y) })
		checkBytePairs(t, "VcgeqU8", u.VcgeqU8, func(x, y uint8) uint8 { return ifMask8(x >= y) })
		checkBytePairs(t, "VcltqU8", u.VcltqU8, func(x, y uint8) uint8 { return ifMask8(x < y) })
		checkBytePairs(t, "VceqqU8", u.VceqqU8, func(x, y uint8) uint8 { return ifMask8(x == y) })
		checkBytePairs(t, "VaddqU8", u.VaddqU8, func(x, y uint8) uint8 { return x + y })
	})
	t.Run("s16", func(t *testing.T) {
		checkWordPairs(t, "VminqS16", u.VminqS16, func(x, y int16) int16 {
			if x < y {
				return x
			}
			return y
		})
		checkWordPairs(t, "VmaxqS16", u.VmaxqS16, func(x, y int16) int16 {
			if x > y {
				return x
			}
			return y
		})
		checkWordPairs(t, "VabsqS16", func(a, _ vec.V128) vec.V128 { return u.VabsqS16(a) },
			func(x, _ int16) int16 {
				if x < 0 {
					return -x // MinInt16 wraps
				}
				return x
			})
		checkWordPairs(t, "VqabsqS16", func(a, _ vec.V128) vec.V128 { return u.VqabsqS16(a) },
			func(x, _ int16) int16 {
				if x == math.MinInt16 {
					return math.MaxInt16
				}
				if x < 0 {
					return -x
				}
				return x
			})
		checkWordPairs(t, "VaddqS16", u.VaddqS16, func(x, y int16) int16 { return x + y })
		checkWordPairs(t, "VsubqS16", u.VsubqS16, func(x, y int16) int16 { return x - y })
		checkWordPairs(t, "VcgtqS16", u.VcgtqS16, func(x, y int16) int16 { return ifMask16(x > y) })
		checkWordPairs(t, "VcgeqS16", u.VcgeqS16, func(x, y int16) int16 { return ifMask16(x >= y) })
		checkWordPairs(t, "VcltqS16", u.VcltqS16, func(x, y int16) int16 { return ifMask16(x < y) })
		checkWordPairs(t, "VceqqS16", u.VceqqS16, func(x, y int16) int16 { return ifMask16(x == y) })
		checkWordPairs(t, "VaddqU16", u.VaddqU16, func(x, y int16) int16 { return int16(uint16(x) + uint16(y)) })
		checkWordPairs(t, "VqaddqS16", u.VqaddqS16, func(x, y int16) int16 { return satI16(int32(x) + int32(y)) })
		checkWordPairs(t, "VqsubqS16", u.VqsubqS16, func(x, y int16) int16 { return satI16(int32(x) - int32(y)) })
		checkWordPairs(t, "VmulqS16", u.VmulqS16, func(x, y int16) int16 { return x * y })
		checkWordPairs(t, "VmlaqS16", func(a, b vec.V128) vec.V128 { return u.VmlaqS16(a, b, b) },
			func(x, y int16) int16 { return x + y*y })
		for _, s := range wordBoundaries {
			checkWordPairs(t, "VmulqNS16", func(a, _ vec.V128) vec.V128 { return u.VmulqNS16(a, s) },
				func(x, _ int16) int16 { return x * s })
			checkWordPairs(t, "VmulqNU16", func(a, _ vec.V128) vec.V128 { return u.VmulqNU16(a, uint16(s)) },
				func(x, _ int16) int16 { return int16(uint16(x) * uint16(s)) })
			checkWordPairs(t, "VmlaqNS16", func(a, b vec.V128) vec.V128 { return u.VmlaqNS16(a, b, s) },
				func(x, y int16) int16 { return x + y*s })
			checkWordPairs(t, "VmlaqNU16", func(a, b vec.V128) vec.V128 { return u.VmlaqNU16(a, b, uint16(s)) },
				func(x, y int16) int16 { return int16(uint16(x) + uint16(y)*uint16(s)) })
		}
	})
	t.Run("shift", func(t *testing.T) {
		for _, n := range shiftCounts {
			checkWordPairs(t, "VshlqNS16", func(a, _ vec.V128) vec.V128 { return u.VshlqNS16(a, n) },
				func(x, _ int16) int16 { return x << n })
			checkWordPairs(t, "VshrqNS16", func(a, _ vec.V128) vec.V128 { return u.VshrqNS16(a, n) },
				func(x, _ int16) int16 { return x >> n })
			checkWordPairs(t, "VshrqNU16", func(a, _ vec.V128) vec.V128 { return u.VshrqNU16(a, n) },
				func(x, _ int16) int16 { return int16(uint16(x) >> n) })
			checkWordPairs(t, "VrshrqNU16", func(a, _ vec.V128) vec.V128 { return u.VrshrqNU16(a, n) },
				func(x, _ int16) int16 {
					if n == 0 {
						return x
					}
					return int16((uint32(uint16(x)) + 1<<(n-1)) >> n)
				})
			checkWordPairs(t, "VsraqNS16", func(a, b vec.V128) vec.V128 { return u.VsraqNS16(a, b, n) },
				func(x, y int16) int16 { return x + y>>n })
			checkWordNarrow(t, "VrshrnNU16", func(a vec.V128) vec.V64 { return u.VrshrnNU16(a, n) },
				func(x int16) uint8 {
					if n == 0 {
						return uint8(x)
					}
					return uint8((uint32(uint16(x)) + 1<<(n-1)) >> n)
				})
		}
	})
	t.Run("narrow", func(t *testing.T) {
		checkWordNarrow(t, "VmovnU16", u.VmovnU16, func(x int16) uint8 { return uint8(x) })
		checkWordNarrow(t, "VqmovnS16", u.VqmovnS16, func(x int16) uint8 {
			if x > math.MaxInt8 {
				return math.MaxInt8
			}
			if x < math.MinInt8 {
				return 0x80
			}
			return uint8(x)
		})
		checkWordNarrow(t, "VqmovunS16", u.VqmovunS16, func(x int16) uint8 {
			if x > math.MaxUint8 {
				return math.MaxUint8
			}
			if x < 0 {
				return 0
			}
			return uint8(x)
		})
	})
	t.Run("widen", func(t *testing.T) {
		checkByteWiden(t, "VaddlU8", u.VaddlU8, func(x, y uint8) uint16 { return uint16(x) + uint16(y) })
		checkByteWiden(t, "VsublU8", u.VsublU8, func(x, y uint8) uint16 { return uint16(x) - uint16(y) })
		checkByteWiden(t, "VmullU8", u.VmullU8, func(x, y uint8) uint16 { return uint16(x) * uint16(y) })
		checkByteWiden(t, "VmovlU8", func(a, _ vec.V64) vec.V128 { return u.VmovlU8(a) },
			func(x, _ uint8) uint16 { return uint16(x) })
		// The accumulating forms cycle their accumulator through the
		// wordPairs registers, so the sum wraps past 0xFFFF in every lane.
		var accs []vec.V128
		forWordPairs(func(a, b vec.V128) { accs = append(accs, a, b) })
		k := 0
		forBytePairs(func(a, b vec.V128) {
			for _, h := range [][2]vec.V64{{a.Low(), b.Low()}, {a.High(), b.High()}} {
				acc := accs[k%len(accs)]
				k++
				rw := u.VaddwU8(acc, h[0])
				rm := u.VmlalU8(acc, h[0], h[1])
				for l := 0; l < 8; l++ {
					c, x, y := acc.U16(l), uint16(h[0].U8(l)), uint16(h[1].U8(l))
					if rw.U16(l) != c+x {
						t.Fatalf("VaddwU8(%d, %d) lane %d = %d, want %d", c, x, l, rw.U16(l), c+x)
					}
					if rm.U16(l) != c+x*y {
						t.Fatalf("VmlalU8(%d, %d, %d) lane %d = %d, want %d", c, x, y, l, rm.U16(l), c+x*y)
					}
				}
			}
		})
	})
	t.Run("memory", func(t *testing.T) {
		buf := make([]uint8, 40)
		for i := range buf {
			buf[i] = uint8(i*29 + 7)
		}
		p := u.Vld2U8(buf[3:])
		for l := 0; l < 8; l++ {
			if p[0].U8(l) != buf[3+2*l] || p[1].U8(l) != buf[4+2*l] {
				t.Fatalf("Vld2U8 lane %d = %d/%d, want %d/%d", l, p[0].U8(l), p[1].U8(l), buf[3+2*l], buf[4+2*l])
			}
		}
		q, d := u.Vld1qU8(buf[5:]), u.Vld1U8(buf[5:])
		for l := 0; l < 16; l++ {
			if q.U8(l) != buf[5+l] || l < 8 && d.U8(l) != buf[5+l] {
				t.Fatalf("Vld1qU8/Vld1U8 lane %d = %d/%d, want %d", l, q.U8(l), d.U8(l), buf[5+l])
			}
		}
		out := make([]uint8, 18)
		u.Vst1qU8(out[1:], q)
		u.Vst1U8(out[1:], vec.Zero().Low())
		for i, x := range out {
			want := uint8(0)
			if i >= 9 && i < 17 {
				want = buf[4+i]
			}
			if x != want {
				t.Fatalf("Vst1qU8/Vst1U8 byte %d = %d, want %d", i, x, want)
			}
		}
		forWordPairs(func(a, _ vec.V128) {
			src := make([]int16, 10)
			for l := 0; l < 8; l++ {
				src[1+l] = a.I16(l)
			}
			if got := u.Vld1qS16(src[1:]); got != a {
				t.Fatalf("Vld1qS16 = %v, want %v", got, a)
			}
			if got := u.Vld1S16(src[1:]); got != a.Low() {
				t.Fatalf("Vld1S16 = %v, want %v", got, a.Low())
			}
			src16 := make([]uint16, 8)
			for l := range src16 {
				src16[l] = a.U16(l)
			}
			if got := u.Vld1qU16(src16); got != a {
				t.Fatalf("Vld1qU16 = %v, want %v", got, a)
			}
			dst := make([]int16, 10)
			u.Vst1qS16(dst[1:], a)
			u.Vst1S16(dst[1:], a.High())
			dst16 := make([]uint16, 9)
			u.Vst1qU16(dst16, a)
			for i, x := range dst {
				want := int16(0)
				switch {
				case i >= 1 && i < 5:
					want = a.I16(i + 3)
				case i >= 5 && i < 9:
					want = a.I16(i - 1)
				}
				if x != want {
					t.Fatalf("Vst1qS16/Vst1S16 element %d = %d, want %d", i, x, want)
				}
			}
			for i, x := range dst16[:8] {
				if x != a.U16(i) || dst16[8] != 0 {
					t.Fatalf("Vst1qU16 element %d = %d, want %d", i, x, a.U16(i))
				}
			}
		})
		for _, x := range wordBoundaries {
			want := vec.FromI16x8([8]int16{x, x, x, x, x, x, x, x})
			if got := u.VdupqNS16(x); got != want {
				t.Fatalf("VdupqNS16(%d) = %v, want %v", x, got, want)
			}
			if got := u.VdupqNU16(uint16(x)); got != want {
				t.Fatalf("VdupqNU16(%d) = %v, want %v", x, got, want)
			}
			if got := u.VdupNS16(x); got != want.Low() {
				t.Fatalf("VdupNS16(%d) = %v, want %v", x, got, want.Low())
			}
			b := uint8(x)
			wb := vec.FromU8x16([16]uint8{b, b, b, b, b, b, b, b, b, b, b, b, b, b, b, b})
			if got := u.VdupqNU8(b); got != wb {
				t.Fatalf("VdupqNU8(%d) = %v, want %v", b, got, wb)
			}
			if got := u.VdupNU8(b); got != wb.Low() {
				t.Fatalf("VdupNU8(%d) = %v, want %v", b, got, wb.Low())
			}
		}
	})
	t.Run("spec", testLaneSpec)
	// The float compares only share the mask widening; their predicates,
	// NaN and signed-zero behaviour included, are the language's own.
	t.Run("f32", func(t *testing.T) {
		nan := float32(math.NaN())
		inf := float32(math.Inf(1))
		negZero := float32(math.Copysign(0, -1))
		specials := []float32{nan, -inf, -1, negZero, 0, 1, inf}
		ops := []struct {
			name string
			op   func(a, b vec.V128) vec.V128
			ref  func(x, y float32) bool
		}{
			{"VcgtqF32", u.VcgtqF32, func(x, y float32) bool { return x > y }},
			{"VcgeqF32", u.VcgeqF32, func(x, y float32) bool { return x >= y }},
			{"VcltqF32", u.VcltqF32, func(x, y float32) bool { return x < y }},
			{"VceqqF32", u.VceqqF32, func(x, y float32) bool { return x == y }},
		}
		for _, c := range ops {
			for _, x := range specials {
				for _, y := range specials {
					r := c.op(vec.FromF32x4([4]float32{x, x, x, x}), vec.FromF32x4([4]float32{y, y, y, y}))
					want := uint32(0)
					if c.ref(x, y) {
						want = math.MaxUint32
					}
					for l := 0; l < 4; l++ {
						if r.U32(l) != want {
							t.Fatalf("%s(%v, %v) lane %d = %#x, want %#x", c.name, x, y, l, r.U32(l), want)
						}
					}
				}
			}
		}
	})
}
