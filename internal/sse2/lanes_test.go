package sse2

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

// checkPack runs a two-register int16-to-byte pack over wordPairs: byte
// lanes 0-7 narrow a, 8-15 narrow b.
func checkPack(t *testing.T, name string, op func(a, b vec.V128) vec.V128, ref func(x int16) uint8) {
	t.Helper()
	forWordPairs(func(a, b vec.V128) {
		r := op(a, b)
		for l := 0; l < 16; l++ {
			x := a.I16(l % 8)
			if l >= 8 {
				x = b.I16(l - 8)
			}
			if want := ref(x); r.U8(l) != want {
				t.Fatalf("%s(%d) byte %d = %#x, want %#x", name, x, l, r.U8(l), want)
			}
		}
	})
}

// shiftCounts are the immediate shift counts the shift tests sweep, past
// 15 included: psllw/psrlw then clear every lane and psraw fills it with
// the sign.
var shiftCounts = []uint{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 64}

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
		checkBytePairs(t, "MinEpu8", u.MinEpu8, func(x, y uint8) uint8 {
			if x < y {
				return x
			}
			return y
		})
		checkBytePairs(t, "MaxEpu8", u.MaxEpu8, func(x, y uint8) uint8 {
			if x > y {
				return x
			}
			return y
		})
		checkBytePairs(t, "CmpeqEpi8", u.CmpeqEpi8, func(x, y uint8) uint8 { return ifMask8(x == y) })
		checkBytePairs(t, "CmpgtEpi8", u.CmpgtEpi8, func(x, y uint8) uint8 { return ifMask8(int8(x) > int8(y)) })
		checkBytePairs(t, "AddEpi8", u.AddEpi8, func(x, y uint8) uint8 { return x + y })
		checkBytePairs(t, "SubEpi8", u.SubEpi8, func(x, y uint8) uint8 { return x - y })
		forBytePairs(func(a, b vec.V128) {
			lo, hi := u.UnpackloEpi8(a, b), u.UnpackhiEpi8(a, b)
			for l := 0; l < 8; l++ {
				if lo.U8(2*l) != a.U8(l) || lo.U8(2*l+1) != b.U8(l) {
					t.Fatalf("UnpackloEpi8(%v, %v) = %v", a, b, lo)
				}
				if hi.U8(2*l) != a.U8(8+l) || hi.U8(2*l+1) != b.U8(8+l) {
					t.Fatalf("UnpackhiEpi8(%v, %v) = %v", a, b, hi)
				}
			}
		})
		forBytePairs(func(a, b vec.V128) {
			r := u.SadEpu8(a, b)
			for h := 0; h < 2; h++ {
				var want uint64
				for l := 8 * h; l < 8*h+8; l++ {
					if a.U8(l) > b.U8(l) {
						want += uint64(a.U8(l) - b.U8(l))
					} else {
						want += uint64(b.U8(l) - a.U8(l))
					}
				}
				if r.U64(h) != want {
					t.Fatalf("SadEpu8(%v, %v) half %d = %d, want %d", a, b, h, r.U64(h), want)
				}
			}
			for _, v := range []vec.V128{a, b} {
				want := 0
				for l, x := range v.ToU8x16() {
					if x >= 0x80 {
						want |= 1 << l
					}
				}
				if got := u.MovemaskEpi8(v); got != want {
					t.Fatalf("MovemaskEpi8(%v) = %#x, want %#x", v, got, want)
				}
			}
		})
	})
	t.Run("s16", func(t *testing.T) {
		checkWordPairs(t, "MinEpi16", u.MinEpi16, func(x, y int16) int16 {
			if x < y {
				return x
			}
			return y
		})
		checkWordPairs(t, "MaxEpi16", u.MaxEpi16, func(x, y int16) int16 {
			if x > y {
				return x
			}
			return y
		})
		checkWordPairs(t, "AddEpi16", u.AddEpi16, func(x, y int16) int16 { return x + y })
		checkWordPairs(t, "SubEpi16", u.SubEpi16, func(x, y int16) int16 { return x - y })
		checkWordPairs(t, "MulloEpi16", u.MulloEpi16, func(x, y int16) int16 { return x * y })
		checkWordPairs(t, "CmpeqEpi16", u.CmpeqEpi16, func(x, y int16) int16 { return ifMask16(x == y) })
		checkWordPairs(t, "CmpgtEpi16", u.CmpgtEpi16, func(x, y int16) int16 { return ifMask16(x > y) })
		checkWordPairs(t, "CmpltEpi16", u.CmpltEpi16, func(x, y int16) int16 { return ifMask16(x < y) })
		checkWordPairs(t, "AddsEpi16", u.AddsEpi16, func(x, y int16) int16 { return satI16(int32(x) + int32(y)) })
		checkWordPairs(t, "SubsEpi16", u.SubsEpi16, func(x, y int16) int16 { return satI16(int32(x) - int32(y)) })
		checkPack(t, "PackusEpi16", u.PackusEpi16, func(x int16) uint8 {
			if x > math.MaxUint8 {
				return math.MaxUint8
			}
			if x < 0 {
				return 0
			}
			return uint8(x)
		})
		checkPack(t, "PacksEpi16", u.PacksEpi16, func(x int16) uint8 {
			if x > math.MaxInt8 {
				return math.MaxInt8
			}
			if x < math.MinInt8 {
				return 0x80
			}
			return uint8(x)
		})
	})
	t.Run("shift", func(t *testing.T) {
		for _, n := range shiftCounts {
			checkWordPairs(t, "SlliEpi16", func(a, _ vec.V128) vec.V128 { return u.SlliEpi16(a, n) },
				func(x, _ int16) int16 {
					if n > 15 {
						return 0
					}
					return x << n
				})
			checkWordPairs(t, "SrliEpi16", func(a, _ vec.V128) vec.V128 { return u.SrliEpi16(a, n) },
				func(x, _ int16) int16 {
					if n > 15 {
						return 0
					}
					return int16(uint16(x) >> n)
				})
			checkWordPairs(t, "SraiEpi16", func(a, _ vec.V128) vec.V128 { return u.SraiEpi16(a, n) },
				func(x, _ int16) int16 { return x >> min(n, 15) })
		}
	})
	t.Run("memory", func(t *testing.T) {
		buf := make([]uint8, 40)
		for i := range buf {
			buf[i] = uint8(i*29 + 7)
		}
		q, d := u.LoaduSi128U8(buf[5:]), u.LoadlEpi64U8(buf[5:])
		for l := 0; l < 16; l++ {
			wantD := uint8(0)
			if l < 8 {
				wantD = buf[5+l]
			}
			if q.U8(l) != buf[5+l] || d.U8(l) != wantD {
				t.Fatalf("LoaduSi128U8/LoadlEpi64U8 lane %d = %d/%d, want %d/%d", l, q.U8(l), d.U8(l), buf[5+l], wantD)
			}
		}
		out := make([]uint8, 18)
		u.StoreuSi128U8(out[1:], q)
		u.StorelEpi64U8(out[1:], vec.Zero())
		for i, x := range out {
			want := uint8(0)
			if i >= 9 && i < 17 {
				want = buf[4+i]
			}
			if x != want {
				t.Fatalf("StoreuSi128U8/StorelEpi64U8 byte %d = %d, want %d", i, x, want)
			}
		}
		forWordPairs(func(a, _ vec.V128) {
			src := make([]int16, 10)
			for l := 0; l < 8; l++ {
				src[1+l] = a.I16(l)
			}
			if got := u.LoaduSi128S16(src[1:]); got != a {
				t.Fatalf("LoaduSi128S16 = %v, want %v", got, a)
			}
			if got, want := u.LoadlEpi64S16(src[1:]), vec.Combine(a.Low(), vec.V64{}); got != want {
				t.Fatalf("LoadlEpi64S16 = %v, want %v", got, want)
			}
			src16 := make([]uint16, 8)
			for l := range src16 {
				src16[l] = a.U16(l)
			}
			if got := u.LoaduSi128U16(src16); got != a {
				t.Fatalf("LoaduSi128U16 = %v, want %v", got, a)
			}
			dst := make([]int16, 10)
			u.StoreuSi128S16(dst[1:], a)
			u.StorelEpi64S16(dst[1:], vec.Combine(a.High(), a.Low()))
			dst16 := make([]uint16, 9)
			u.StoreuSi128U16(dst16, a)
			for i, x := range dst {
				want := int16(0)
				switch {
				case i >= 1 && i < 5:
					want = a.I16(i + 3)
				case i >= 5 && i < 9:
					want = a.I16(i - 1)
				}
				if x != want {
					t.Fatalf("StoreuSi128S16/StorelEpi64S16 element %d = %d, want %d", i, x, want)
				}
			}
			for i, x := range dst16[:8] {
				if x != a.U16(i) || dst16[8] != 0 {
					t.Fatalf("StoreuSi128U16 element %d = %d, want %d", i, x, a.U16(i))
				}
			}
		})
		for _, x := range wordBoundaries {
			want := vec.FromI16x8([8]int16{x, x, x, x, x, x, x, x})
			if got := u.Set1Epi16(x); got != want {
				t.Fatalf("Set1Epi16(%d) = %v, want %v", x, got, want)
			}
			b := uint8(x)
			wb := vec.FromU8x16([16]uint8{b, b, b, b, b, b, b, b, b, b, b, b, b, b, b, b})
			if got := u.Set1Epu8(b); got != wb {
				t.Fatalf("Set1Epu8(%d) = %v, want %v", b, got, wb)
			}
			if got := u.Set1Epi8(int8(b)); got != wb {
				t.Fatalf("Set1Epi8(%d) = %v, want %v", b, got, wb)
			}
		}
	})
	t.Run("spec", testLaneSpec)
	// The 32-bit and float compares only share the mask widening; their
	// predicates, NaN and signed-zero behaviour included, are the
	// language's own.
	t.Run("32", func(t *testing.T) {
		nan := float32(math.NaN())
		inf := float32(math.Inf(1))
		negZero := float32(math.Copysign(0, -1))
		floats := []float32{nan, -inf, -1, negZero, 0, 1, inf}
		fops := []struct {
			name string
			op   func(a, b vec.V128) vec.V128
			ref  func(x, y float32) bool
		}{
			{"CmpgtPs", u.CmpgtPs, func(x, y float32) bool { return x > y }},
			{"CmpgePs", u.CmpgePs, func(x, y float32) bool { return x >= y }},
			{"CmpltPs", u.CmpltPs, func(x, y float32) bool { return x < y }},
			{"CmpeqPs", u.CmpeqPs, func(x, y float32) bool { return x == y }},
			{"CmpneqPs", u.CmpneqPs, func(x, y float32) bool { return x != y }},
		}
		for _, c := range fops {
			for _, x := range floats {
				for _, y := range floats {
					r := c.op(vec.FromF32x4([4]float32{x, x, x, x}), vec.FromF32x4([4]float32{y, y, y, y}))
					checkMask32(t, c.name, x, y, r, c.ref(x, y))
				}
			}
		}
		ints := []int32{math.MinInt32, -1, 0, 1, math.MaxInt32}
		iops := []struct {
			name string
			op   func(a, b vec.V128) vec.V128
			ref  func(x, y int32) bool
		}{
			{"CmpgtEpi32", u.CmpgtEpi32, func(x, y int32) bool { return x > y }},
			{"CmpeqEpi32", u.CmpeqEpi32, func(x, y int32) bool { return x == y }},
		}
		for _, c := range iops {
			for _, x := range ints {
				for _, y := range ints {
					r := c.op(vec.FromI32x4([4]int32{x, x, x, x}), vec.FromI32x4([4]int32{y, y, y, y}))
					checkMask32(t, c.name, x, y, r, c.ref(x, y))
				}
			}
		}
	})
}

func checkMask32(t *testing.T, name string, x, y any, r vec.V128, set bool) {
	t.Helper()
	want := uint32(0)
	if set {
		want = math.MaxUint32
	}
	for l := 0; l < 4; l++ {
		if r.U32(l) != want {
			t.Fatalf("%s(%v, %v) lane %d = %#x, want %#x", name, x, y, l, r.U32(l), want)
		}
	}
}
