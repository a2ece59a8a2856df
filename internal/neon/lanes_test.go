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
	})
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
