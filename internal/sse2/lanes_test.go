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
			var a, b vec.V128
			for l := range a {
				p := (base + l) * mul & 0xFFFF
				a[l], b[l] = uint8(p>>8), uint8(p)
			}
			f(a, b)
		}
	}
}

// checkBytePairs runs a lane-wise byte op over every byte pair.
func checkBytePairs(t *testing.T, name string, op func(a, b vec.V128) vec.V128, ref func(x, y uint8) uint8) {
	t.Helper()
	forBytePairs(func(a, b vec.V128) {
		r := op(a, b)
		for l := range r {
			if want := ref(a[l], b[l]); r[l] != want {
				t.Fatalf("%s(%d, %d) lane %d = %#x, want %#x", name, a[l], b[l], l, r[l], want)
			}
		}
	})
}

// wordBoundaries are the int16 values where a widening, wrapping or
// saturating rewrite would go wrong.
var wordBoundaries = []int16{math.MinInt16, math.MinInt16 + 1, -1, 0, 1, math.MaxInt16 - 1, math.MaxInt16}

// checkWordPairs runs op over every pair of wordBoundaries and 10^5 seeded
// random pairs, eight per call.
func checkWordPairs(t *testing.T, name string, op func(a, b vec.V128) vec.V128, ref func(x, y int16) int16) {
	t.Helper()
	var xs, ys []int16
	for _, x := range wordBoundaries {
		for _, y := range wordBoundaries {
			xs, ys = append(xs, x), append(ys, y)
		}
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 100000; i++ {
		xs, ys = append(xs, int16(rng.Uint32())), append(ys, int16(rng.Uint32()))
	}
	for base := 0; base < len(xs); base += 8 {
		var a, b vec.V128
		for l := 0; l < 8; l++ {
			k := (base + l) % len(xs)
			a.SetI16(l, xs[k])
			b.SetI16(l, ys[k])
		}
		r := op(a, b)
		for l := 0; l < 8; l++ {
			x, y := a.I16(l), b.I16(l)
			if want := ref(x, y); r.I16(l) != want {
				t.Fatalf("%s(%d, %d) lane %d = %d, want %d", name, x, y, l, r.I16(l), want)
			}
		}
	}
}

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
		forBytePairs(func(a, b vec.V128) {
			r := u.SadEpu8(a, b)
			for h := 0; h < 2; h++ {
				var want uint64
				for l := 8 * h; l < 8*h+8; l++ {
					if a[l] > b[l] {
						want += uint64(a[l] - b[l])
					} else {
						want += uint64(b[l] - a[l])
					}
				}
				if r.U64(h) != want {
					t.Fatalf("SadEpu8(%v, %v) half %d = %d, want %d", a, b, h, r.U64(h), want)
				}
			}
			for _, v := range []vec.V128{a, b} {
				want := 0
				for l, x := range v {
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
	})
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
