// Package sat implements saturation arithmetic for the fixed-width integer
// types used by SIMD instruction sets.
//
// Saturating operations clamp results to the representable range of the
// destination type instead of wrapping around. Both NEON ("q" prefixed
// intrinsics such as vqadd, vqmovn) and SSE2 (padds, packs) rely on these
// semantics, as does OpenCV's saturate_cast template family, which the
// paper's first benchmark (float to short conversion) is built around.
package sat

import "math"

// Int8 clamps a wide integer to the int8 range.
func Int8(v int64) int8 {
	if v < math.MinInt8 {
		return math.MinInt8
	}
	if v > math.MaxInt8 {
		return math.MaxInt8
	}
	return int8(v)
}

// Uint8 clamps a wide integer to the uint8 range.
func Uint8(v int64) uint8 {
	if v < 0 {
		return 0
	}
	if v > math.MaxUint8 {
		return math.MaxUint8
	}
	return uint8(v)
}

// Int16 clamps a wide integer to the int16 range.
func Int16(v int64) int16 {
	if v < math.MinInt16 {
		return math.MinInt16
	}
	if v > math.MaxInt16 {
		return math.MaxInt16
	}
	return int16(v)
}

// Uint16 clamps a wide integer to the uint16 range.
func Uint16(v int64) uint16 {
	if v < 0 {
		return 0
	}
	if v > math.MaxUint16 {
		return math.MaxUint16
	}
	return uint16(v)
}

// Int32 clamps a wide integer to the int32 range.
func Int32(v int64) int32 {
	if v < math.MinInt32 {
		return math.MinInt32
	}
	if v > math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(v)
}

// Uint32 clamps a wide integer to the uint32 range.
func Uint32(v int64) uint32 {
	if v < 0 {
		return 0
	}
	if v > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(v)
}

// AddInt8 returns a+b with signed 8-bit saturation.
func AddInt8(a, b int8) int8 { return Int8(int64(a) + int64(b)) }

// AddUint8 returns a+b with unsigned 8-bit saturation.
func AddUint8(a, b uint8) uint8 { return Uint8(int64(a) + int64(b)) }

// AddInt16 returns a+b with signed 16-bit saturation.
func AddInt16(a, b int16) int16 { return Int16(int64(a) + int64(b)) }

// AddUint16 returns a+b with unsigned 16-bit saturation.
func AddUint16(a, b uint16) uint16 { return Uint16(int64(a) + int64(b)) }

// AddInt32 returns a+b with signed 32-bit saturation.
func AddInt32(a, b int32) int32 { return Int32(int64(a) + int64(b)) }

// AddInt64 returns a+b with signed 64-bit saturation.
func AddInt64(a, b int64) int64 {
	s := a + b
	// Overflow occurred iff operands share a sign that differs from the sum's.
	if (a >= 0) == (b >= 0) && (s >= 0) != (a >= 0) {
		if a >= 0 {
			return math.MaxInt64
		}
		return math.MinInt64
	}
	return s
}

// AddUint64 returns a+b with unsigned 64-bit saturation.
func AddUint64(a, b uint64) uint64 {
	s := a + b
	if s < a {
		return math.MaxUint64
	}
	return s
}

// SubInt8 returns a-b with signed 8-bit saturation.
func SubInt8(a, b int8) int8 { return Int8(int64(a) - int64(b)) }

// SubUint8 returns a-b with unsigned 8-bit saturation (floors at zero).
func SubUint8(a, b uint8) uint8 { return Uint8(int64(a) - int64(b)) }

// SubInt16 returns a-b with signed 16-bit saturation.
func SubInt16(a, b int16) int16 { return Int16(int64(a) - int64(b)) }

// SubUint16 returns a-b with unsigned 16-bit saturation.
func SubUint16(a, b uint16) uint16 { return Uint16(int64(a) - int64(b)) }

// SubInt32 returns a-b with signed 32-bit saturation.
func SubInt32(a, b int32) int32 { return Int32(int64(a) - int64(b)) }

// SubInt64 returns a-b with signed 64-bit saturation.
func SubInt64(a, b int64) int64 {
	d := a - b
	if (a >= 0) != (b >= 0) && (d >= 0) != (a >= 0) {
		if a >= 0 {
			return math.MaxInt64
		}
		return math.MinInt64
	}
	return d
}

// SubUint64 returns a-b with unsigned 64-bit saturation.
func SubUint64(a, b uint64) uint64 {
	if b > a {
		return 0
	}
	return a - b
}

// NarrowInt16ToInt8 narrows with signed saturation (NEON vqmovn.s16 lane,
// SSE2 packsswb lane).
func NarrowInt16ToInt8(v int16) int8 { return Int8(int64(v)) }

// NarrowInt16ToUint8 narrows signed to unsigned with saturation
// (NEON vqmovun.s16 lane, SSE2 packuswb lane).
func NarrowInt16ToUint8(v int16) uint8 { return Uint8(int64(v)) }

// NarrowInt32ToInt16 narrows with signed saturation (NEON vqmovn.s32 lane,
// SSE2 packssdw lane). This is the exact operation at the heart of the
// paper's float-to-short benchmark.
func NarrowInt32ToInt16(v int32) int16 { return Int16(int64(v)) }

// NarrowInt32ToUint16 narrows signed to unsigned with saturation.
func NarrowInt32ToUint16(v int32) uint16 { return Uint16(int64(v)) }

// NarrowInt64ToInt32 narrows with signed saturation.
func NarrowInt64ToInt32(v int64) int32 { return Int32(v) }

// NarrowUint16ToUint8 narrows with unsigned saturation (NEON vqmovn.u16).
func NarrowUint16ToUint8(v uint16) uint8 {
	if v > math.MaxUint8 {
		return math.MaxUint8
	}
	return uint8(v)
}

// NarrowUint32ToUint16 narrows with unsigned saturation (NEON vqmovn.u32).
func NarrowUint32ToUint16(v uint32) uint16 {
	if v > math.MaxUint16 {
		return math.MaxUint16
	}
	return uint16(v)
}

// RoundHalfAwayFromZero rounds to nearest with ties away from zero. This is
// the fallback cvRound path in OpenCV when SSE2 is unavailable:
//
//	(int)(value + (value >= 0 ? 0.5 : -0.5))
//
// The half takes v's sign bit instead of a branch on it, which on pixels
// of random sign mispredicts about every other time. Only -0 reads the
// sign differently, and it rounds to 0 either way; NaN converts to 0
// whatever half it gets.
func RoundHalfAwayFromZero(v float64) int32 {
	return Float64ToInt32(v + math.Copysign(0.5, v))
}

// RoundHalfToEven rounds to nearest with ties to even. This is the x86
// cvtsd2si / cvtps2dq behaviour under the default MXCSR rounding mode and
// the NEON vcvtn behaviour; it is what cvRound compiles to when SSE2 is
// available, and what lrint does under the default FP environment.
func RoundHalfToEven(v float64) int32 {
	return Float64ToInt32(math.RoundToEven(v))
}

// RoundHalfToEvenIndefinite rounds to nearest-even with the x86 overflow
// convention: NaN and out-of-range values produce the "integer indefinite"
// value MinInt32 (cvtsd2si / cvtps2dq behaviour). OpenCV's cvRound on x86
// compiles to exactly this.
func RoundHalfToEvenIndefinite(v float64) int32 {
	if math.IsNaN(v) || v >= math.MaxInt32 || v < math.MinInt32 {
		return math.MinInt32
	}
	return int32(math.RoundToEven(v))
}

// Float64ToInt32 converts with saturation at the int32 rails. x86 conversion
// instructions return the "integer indefinite" value 0x80000000 on overflow;
// NEON vcvt saturates (positive overflow gives MaxInt32). We follow the NEON
// convention for out-of-range positives, matching OpenCV's saturate_cast
// observable behaviour after its subsequent int->short clamp.
func Float64ToInt32(v float64) int32 {
	if math.IsNaN(v) {
		return 0
	}
	if v >= math.MaxInt32 {
		return math.MaxInt32
	}
	if v <= math.MinInt32 {
		return math.MinInt32
	}
	return int32(v)
}

// Float32ToInt32Truncate converts with truncation toward zero and NEON-style
// saturation (vcvt.s32.f32 semantics).
func Float32ToInt32Truncate(v float32) int32 {
	f := float64(v)
	if math.IsNaN(f) {
		return 0
	}
	if f >= math.MaxInt32 {
		return math.MaxInt32
	}
	if f <= math.MinInt32 {
		return math.MinInt32
	}
	return int32(f) // Go float->int conversion truncates toward zero.
}

// DoubleInt16 doubles with saturation (NEON vqdmulh family building block).
func DoubleInt16(v int16) int16 { return Int16(2 * int64(v)) }

// MulInt16 returns a*b with 16-bit signed saturation.
func MulInt16(a, b int16) int16 { return Int16(int64(a) * int64(b)) }

// NegInt8 returns -v with saturation (vqneg.s8): -MinInt8 saturates to MaxInt8.
func NegInt8(v int8) int8 { return Int8(-int64(v)) }

// NegInt16 returns -v with saturation (vqneg.s16).
func NegInt16(v int16) int16 { return Int16(-int64(v)) }

// NegInt32 returns -v with saturation (vqneg.s32).
func NegInt32(v int32) int32 { return Int32(-int64(v)) }

// AbsInt8 returns |v| with saturation (vqabs.s8): |MinInt8| saturates.
func AbsInt8(v int8) int8 {
	if v < 0 {
		return NegInt8(v)
	}
	return v
}

// AbsInt16 returns |v| with saturation (vqabs.s16). It is branch-free:
// the sign decides nothing but a mask, and the one lane that wraps
// (MinInt16) is pulled back to MaxInt16 by its own sign bit.
func AbsInt16(v int16) int16 {
	m := v >> 15
	a := (v ^ m) - m // MinInt16 wraps to itself
	return a + a>>15
}

// AbsInt32 returns |v| with saturation (vqabs.s32).
func AbsInt32(v int32) int32 {
	if v < 0 {
		return NegInt32(v)
	}
	return v
}

// ShiftLeftInt16 returns v<<n with signed saturation (vqshl.s16).
func ShiftLeftInt16(v int16, n uint) int16 {
	if n >= 63 {
		if v == 0 {
			return 0
		}
		if v > 0 {
			return math.MaxInt16
		}
		return math.MinInt16
	}
	return Int16(int64(v) << n)
}

// ShiftLeftInt32 returns v<<n with signed saturation (vqshl.s32).
func ShiftLeftInt32(v int32, n uint) int32 {
	if n >= 63 {
		if v == 0 {
			return 0
		}
		if v > 0 {
			return math.MaxInt32
		}
		return math.MinInt32
	}
	return Int32(int64(v) << n)
}
