// Package vec provides the register value model shared by the NEON and SSE2
// intrinsic emulation layers.
//
// A V128 corresponds to an SSE XMM register or a NEON quad-word Q register;
// a V64 corresponds to an MMX register or a NEON double-word D register.
// Lanes are stored little-endian, exactly as on both target architectures,
// so reinterpreting bit patterns between element types behaves as it does in
// hardware (e.g. NEON vreinterpret, SSE2 casts).
//
// A register is held in 64-bit words, not a byte array: Go's register ABI
// passes a struct of two integers in two registers but any array of more
// than one element in memory, so an array register would be spilled and
// reloaded around every intrinsic call. The lane ops the kernels issue most
// are built from per-word helpers (SIMD within a register) that are
// closure-free, branch-free and small enough to inline. The multiplies and
// the byte interleave test one operand's shape (a broadcast, zero) and take
// a cheaper word form that is exact for that shape; they never branch on
// lane values.
package vec

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// V128 is a 128-bit SIMD register value (XMM / NEON Q register). Lo holds
// bytes 0-7 and Hi bytes 8-15, each little-endian: byte lane i of Lo is
// bits 8i..8i+7.
type V128 struct{ Lo, Hi uint64 }

// V64 is a 64-bit SIMD register value (MMX / NEON D register), its bytes
// little-endian in W.
type V64 struct{ W uint64 }

// --- V128 lane accessors ---
//
// A lane index must be in range for the lane width; the accessors do not
// check it.

// field returns the word holding bit offset off (0..127), shifted so the
// lane starting there sits at bit 0.
func (v V128) field(off uint) uint64 {
	w := v.Lo
	if off >= 64 {
		w = v.Hi
	}
	return w >> (off & 63)
}

// setField replaces the lane under mask m at bit offset off with x.
func (v *V128) setField(off uint, m, x uint64) {
	s := off & 63
	if off < 64 {
		v.Lo = v.Lo&^(m<<s) | (x&m)<<s
	} else {
		v.Hi = v.Hi&^(m<<s) | (x&m)<<s
	}
}

// U8 returns unsigned byte lane i (0..15).
func (v V128) U8(i int) uint8 { return uint8(v.field(8 * uint(i))) }

// SetU8 sets unsigned byte lane i.
func (v *V128) SetU8(i int, x uint8) { v.setField(8*uint(i), 0xFF, uint64(x)) }

// I8 returns signed byte lane i.
func (v V128) I8(i int) int8 { return int8(v.U8(i)) }

// SetI8 sets signed byte lane i.
func (v *V128) SetI8(i int, x int8) { v.SetU8(i, uint8(x)) }

// U16 returns unsigned 16-bit lane i (0..7).
func (v V128) U16(i int) uint16 { return uint16(v.field(16 * uint(i))) }

// SetU16 sets unsigned 16-bit lane i.
func (v *V128) SetU16(i int, x uint16) { v.setField(16*uint(i), 0xFFFF, uint64(x)) }

// I16 returns signed 16-bit lane i.
func (v V128) I16(i int) int16 { return int16(v.U16(i)) }

// SetI16 sets signed 16-bit lane i.
func (v *V128) SetI16(i int, x int16) { v.SetU16(i, uint16(x)) }

// U32 returns unsigned 32-bit lane i (0..3).
func (v V128) U32(i int) uint32 { return uint32(v.field(32 * uint(i))) }

// SetU32 sets unsigned 32-bit lane i.
func (v *V128) SetU32(i int, x uint32) { v.setField(32*uint(i), math.MaxUint32, uint64(x)) }

// I32 returns signed 32-bit lane i.
func (v V128) I32(i int) int32 { return int32(v.U32(i)) }

// SetI32 sets signed 32-bit lane i.
func (v *V128) SetI32(i int, x int32) { v.SetU32(i, uint32(x)) }

// U64 returns unsigned 64-bit lane i (0..1).
func (v V128) U64(i int) uint64 { return v.field(64 * uint(i)) }

// SetU64 sets unsigned 64-bit lane i.
func (v *V128) SetU64(i int, x uint64) { v.setField(64*uint(i), math.MaxUint64, x) }

// I64 returns signed 64-bit lane i.
func (v V128) I64(i int) int64 { return int64(v.U64(i)) }

// SetI64 sets signed 64-bit lane i.
func (v *V128) SetI64(i int, x int64) { v.SetU64(i, uint64(x)) }

// F32 returns 32-bit float lane i (0..3).
func (v V128) F32(i int) float32 { return math.Float32frombits(v.U32(i)) }

// SetF32 sets 32-bit float lane i.
func (v *V128) SetF32(i int, x float32) { v.SetU32(i, math.Float32bits(x)) }

// F64 returns 64-bit float lane i (0..1).
func (v V128) F64(i int) float64 { return math.Float64frombits(v.U64(i)) }

// SetF64 sets 64-bit float lane i.
func (v *V128) SetF64(i int, x float64) { v.SetU64(i, math.Float64bits(x)) }

// Low returns the low 64 bits as a V64 (NEON: the D register aliasing the
// low half of a Q register).
func (v V128) Low() V64 { return V64{v.Lo} }

// High returns the high 64 bits as a V64.
func (v V128) High() V64 { return V64{v.Hi} }

// Combine builds a V128 from two V64 halves (NEON vcombine).
func Combine(lo, hi V64) V128 { return V128{lo.W, hi.W} }

// --- V64 lane accessors ---

// set replaces the lane under mask m at bit offset off with x.
func (v *V64) set(off uint, m, x uint64) { v.W = v.W&^(m<<off) | (x&m)<<off }

// U8 returns unsigned byte lane i (0..7).
func (v V64) U8(i int) uint8 { return uint8(v.W >> (8 * uint(i))) }

// SetU8 sets unsigned byte lane i.
func (v *V64) SetU8(i int, x uint8) { v.set(8*uint(i), 0xFF, uint64(x)) }

// I8 returns signed byte lane i.
func (v V64) I8(i int) int8 { return int8(v.U8(i)) }

// SetI8 sets signed byte lane i.
func (v *V64) SetI8(i int, x int8) { v.SetU8(i, uint8(x)) }

// U16 returns unsigned 16-bit lane i (0..3).
func (v V64) U16(i int) uint16 { return uint16(v.W >> (16 * uint(i))) }

// SetU16 sets unsigned 16-bit lane i.
func (v *V64) SetU16(i int, x uint16) { v.set(16*uint(i), 0xFFFF, uint64(x)) }

// I16 returns signed 16-bit lane i.
func (v V64) I16(i int) int16 { return int16(v.U16(i)) }

// SetI16 sets signed 16-bit lane i.
func (v *V64) SetI16(i int, x int16) { v.SetU16(i, uint16(x)) }

// U32 returns unsigned 32-bit lane i (0..1).
func (v V64) U32(i int) uint32 { return uint32(v.W >> (32 * uint(i))) }

// SetU32 sets unsigned 32-bit lane i.
func (v *V64) SetU32(i int, x uint32) { v.set(32*uint(i), math.MaxUint32, uint64(x)) }

// I32 returns signed 32-bit lane i.
func (v V64) I32(i int) int32 { return int32(v.U32(i)) }

// SetI32 sets signed 32-bit lane i.
func (v *V64) SetI32(i int, x int32) { v.SetU32(i, uint32(x)) }

// U64 returns the whole register as an unsigned 64-bit value.
func (v V64) U64() uint64 { return v.W }

// SetU64 sets the whole register.
func (v *V64) SetU64(x uint64) { v.W = x }

// I64 returns the whole register as a signed 64-bit value.
func (v V64) I64() int64 { return int64(v.W) }

// SetI64 sets the whole register from a signed value.
func (v *V64) SetI64(x int64) { v.W = uint64(x) }

// F32 returns 32-bit float lane i (0..1).
func (v V64) F32(i int) float32 { return math.Float32frombits(v.U32(i)) }

// SetF32 sets 32-bit float lane i.
func (v *V64) SetF32(i int, x float32) { v.SetU32(i, math.Float32bits(x)) }

// --- constructors / extractors ---

// pack16 joins four 16-bit lanes into a word, lane 0 lowest.
func pack16(a, b, c, d uint16) uint64 {
	return uint64(a) | uint64(b)<<16 | uint64(c)<<32 | uint64(d)<<48
}

// pack32 joins two 32-bit lanes into a word, lane 0 lowest.
func pack32(a, b uint32) uint64 { return uint64(a) | uint64(b)<<32 }

// FromU8x16 packs sixteen bytes into a V128.
func FromU8x16(x [16]uint8) V128 {
	return V128{binary.LittleEndian.Uint64(x[:8]), binary.LittleEndian.Uint64(x[8:])}
}

// FromI8x16 packs sixteen signed bytes into a V128.
func FromI8x16(x [16]int8) V128 {
	var b [16]uint8
	for i, e := range x {
		b[i] = uint8(e)
	}
	return FromU8x16(b)
}

// FromU16x8 packs eight uint16 lanes into a V128.
func FromU16x8(x [8]uint16) V128 {
	return V128{pack16(x[0], x[1], x[2], x[3]), pack16(x[4], x[5], x[6], x[7])}
}

// FromI16x8 packs eight int16 lanes into a V128.
func FromI16x8(x [8]int16) V128 {
	return V128{
		pack16(uint16(x[0]), uint16(x[1]), uint16(x[2]), uint16(x[3])),
		pack16(uint16(x[4]), uint16(x[5]), uint16(x[6]), uint16(x[7])),
	}
}

// FromU32x4 packs four uint32 lanes into a V128.
func FromU32x4(x [4]uint32) V128 { return V128{pack32(x[0], x[1]), pack32(x[2], x[3])} }

// FromI32x4 packs four int32 lanes into a V128.
func FromI32x4(x [4]int32) V128 {
	return V128{pack32(uint32(x[0]), uint32(x[1])), pack32(uint32(x[2]), uint32(x[3]))}
}

// FromU64x2 packs two uint64 lanes into a V128.
func FromU64x2(x [2]uint64) V128 { return V128{x[0], x[1]} }

// FromI64x2 packs two int64 lanes into a V128.
func FromI64x2(x [2]int64) V128 { return V128{uint64(x[0]), uint64(x[1])} }

// FromF32x4 packs four float32 lanes into a V128.
func FromF32x4(x [4]float32) V128 {
	f := math.Float32bits
	return V128{pack32(f(x[0]), f(x[1])), pack32(f(x[2]), f(x[3]))}
}

// FromF64x2 packs two float64 lanes into a V128.
func FromF64x2(x [2]float64) V128 {
	return V128{math.Float64bits(x[0]), math.Float64bits(x[1])}
}

// ToU8x16 extracts all byte lanes.
func (v V128) ToU8x16() [16]uint8 {
	var x [16]uint8
	binary.LittleEndian.PutUint64(x[:8], v.Lo)
	binary.LittleEndian.PutUint64(x[8:], v.Hi)
	return x
}

// ToI8x16 extracts all signed byte lanes.
func (v V128) ToI8x16() [16]int8 {
	var x [16]int8
	for i, b := range v.ToU8x16() {
		x[i] = int8(b)
	}
	return x
}

// ToU16x8 extracts all uint16 lanes.
func (v V128) ToU16x8() [8]uint16 {
	return [8]uint16{
		uint16(v.Lo), uint16(v.Lo >> 16), uint16(v.Lo >> 32), uint16(v.Lo >> 48),
		uint16(v.Hi), uint16(v.Hi >> 16), uint16(v.Hi >> 32), uint16(v.Hi >> 48),
	}
}

// ToI16x8 extracts all int16 lanes.
func (v V128) ToI16x8() [8]int16 {
	return [8]int16{
		int16(v.Lo), int16(v.Lo >> 16), int16(v.Lo >> 32), int16(v.Lo >> 48),
		int16(v.Hi), int16(v.Hi >> 16), int16(v.Hi >> 32), int16(v.Hi >> 48),
	}
}

// ToU32x4 extracts all uint32 lanes.
func (v V128) ToU32x4() [4]uint32 {
	return [4]uint32{uint32(v.Lo), uint32(v.Lo >> 32), uint32(v.Hi), uint32(v.Hi >> 32)}
}

// ToI32x4 extracts all int32 lanes.
func (v V128) ToI32x4() [4]int32 {
	return [4]int32{int32(v.Lo), int32(v.Lo >> 32), int32(v.Hi), int32(v.Hi >> 32)}
}

// ToF32x4 extracts all float32 lanes.
func (v V128) ToF32x4() [4]float32 {
	f := math.Float32frombits
	return [4]float32{f(uint32(v.Lo)), f(uint32(v.Lo >> 32)), f(uint32(v.Hi)), f(uint32(v.Hi >> 32))}
}

// ToF64x2 extracts both float64 lanes.
func (v V128) ToF64x2() [2]float64 {
	return [2]float64{math.Float64frombits(v.Lo), math.Float64frombits(v.Hi)}
}

// ToI64x2 extracts both int64 lanes.
func (v V128) ToI64x2() [2]int64 { return [2]int64{int64(v.Lo), int64(v.Hi)} }

// FromU8x8 packs eight bytes into a V64.
func FromU8x8(x [8]uint8) V64 { return V64{binary.LittleEndian.Uint64(x[:])} }

// FromI8x8 packs eight signed bytes into a V64.
func FromI8x8(x [8]int8) V64 {
	var b [8]uint8
	for i, e := range x {
		b[i] = uint8(e)
	}
	return FromU8x8(b)
}

// FromU16x4 packs four uint16 lanes into a V64.
func FromU16x4(x [4]uint16) V64 { return V64{pack16(x[0], x[1], x[2], x[3])} }

// FromI16x4 packs four int16 lanes into a V64.
func FromI16x4(x [4]int16) V64 {
	return V64{pack16(uint16(x[0]), uint16(x[1]), uint16(x[2]), uint16(x[3]))}
}

// FromU32x2 packs two uint32 lanes into a V64.
func FromU32x2(x [2]uint32) V64 { return V64{pack32(x[0], x[1])} }

// FromI32x2 packs two int32 lanes into a V64.
func FromI32x2(x [2]int32) V64 { return V64{pack32(uint32(x[0]), uint32(x[1]))} }

// FromF32x2 packs two float32 lanes into a V64.
func FromF32x2(x [2]float32) V64 {
	return V64{pack32(math.Float32bits(x[0]), math.Float32bits(x[1]))}
}

// ToU8x8 extracts all byte lanes of a V64.
func (v V64) ToU8x8() [8]uint8 {
	var x [8]uint8
	binary.LittleEndian.PutUint64(x[:], v.W)
	return x
}

// ToI8x8 extracts all signed byte lanes of a V64.
func (v V64) ToI8x8() [8]int8 {
	var x [8]int8
	for i, b := range v.ToU8x8() {
		x[i] = int8(b)
	}
	return x
}

// ToU16x4 extracts all uint16 lanes of a V64.
func (v V64) ToU16x4() [4]uint16 {
	return [4]uint16{uint16(v.W), uint16(v.W >> 16), uint16(v.W >> 32), uint16(v.W >> 48)}
}

// ToI16x4 extracts all int16 lanes of a V64.
func (v V64) ToI16x4() [4]int16 {
	return [4]int16{int16(v.W), int16(v.W >> 16), int16(v.W >> 32), int16(v.W >> 48)}
}

// ToI32x2 extracts both int32 lanes of a V64.
func (v V64) ToI32x2() [2]int32 { return [2]int32{int32(v.W), int32(v.W >> 32)} }

// ToU32x2 extracts both uint32 lanes of a V64.
func (v V64) ToU32x2() [2]uint32 { return [2]uint32{uint32(v.W), uint32(v.W >> 32)} }

// ToF32x2 extracts both float32 lanes of a V64.
func (v V64) ToF32x2() [2]float32 {
	return [2]float32{math.Float32frombits(uint32(v.W)), math.Float32frombits(uint32(v.W >> 32))}
}

// --- memory transfers ---

// LoadV128 reads 16 bytes from b (little-endian lane order, as on both ISAs).
// It panics if b is shorter than 16 bytes, like a hardware fault on a bad
// address.
func LoadV128(b []byte) V128 {
	b = b[:16]
	return V128{binary.LittleEndian.Uint64(b[:8]), binary.LittleEndian.Uint64(b[8:])}
}

// StoreV128 writes 16 bytes to b.
func StoreV128(b []byte, v V128) {
	b = b[:16]
	binary.LittleEndian.PutUint64(b[:8], v.Lo)
	binary.LittleEndian.PutUint64(b[8:], v.Hi)
}

// LoadV64 reads 8 bytes from b.
func LoadV64(b []byte) V64 { return V64{binary.LittleEndian.Uint64(b[:8])} }

// StoreV64 writes 8 bytes to b.
func StoreV64(b []byte, v V64) { binary.LittleEndian.PutUint64(b[:8], v.W) }

// Load16x8 reads eight 16-bit lanes from p. It panics if p is shorter than
// eight elements. The lanes are spelled out so it inlines.
func Load16x8[T ~int16 | ~uint16](p []T) V128 {
	_ = p[7]
	return V128{
		uint64(uint16(p[0])) | uint64(uint16(p[1]))<<16 | uint64(uint16(p[2]))<<32 | uint64(uint16(p[3]))<<48,
		uint64(uint16(p[4])) | uint64(uint16(p[5]))<<16 | uint64(uint16(p[6]))<<32 | uint64(uint16(p[7]))<<48,
	}
}

// Store16x8 writes the eight 16-bit lanes of v to p.
func Store16x8[T ~int16 | ~uint16](p []T, v V128) {
	_ = p[7]
	p[0], p[1], p[2], p[3] = T(v.Lo), T(v.Lo>>16), T(v.Lo>>32), T(v.Lo>>48)
	p[4], p[5], p[6], p[7] = T(v.Hi), T(v.Hi>>16), T(v.Hi>>32), T(v.Hi>>48)
}

// Load16x4 reads four 16-bit lanes from p into a V64.
func Load16x4[T ~int16 | ~uint16](p []T) V64 {
	a := (*[4]T)(p)
	return V64{uint64(uint16(a[0])) | uint64(uint16(a[1]))<<16 | uint64(uint16(a[2]))<<32 | uint64(uint16(a[3]))<<48}
}

// Store16x4 writes the four 16-bit lanes of v to p.
func Store16x4[T ~int16 | ~uint16](p []T, v V64) {
	a := (*[4]T)(p)
	a[0], a[1], a[2], a[3] = T(v.W), T(v.W>>16), T(v.W>>32), T(v.W>>48)
}

// Deinterleave2U8 reads 16 bytes from b and splits them into the
// even-indexed and odd-indexed bytes (NEON vld2.8).
func Deinterleave2U8(b []byte) (even, odd V64) {
	v := LoadV128(b)
	even.W = narrow8(v.Lo) | narrow8(v.Hi)<<32
	odd.W = narrow8(v.Lo>>8) | narrow8(v.Hi>>8)<<32
	return even, odd
}

// --- bitwise helpers shared by both ISAs ---

// And returns a & b.
func And(a, b V128) V128 { return V128{a.Lo & b.Lo, a.Hi & b.Hi} }

// Or returns a | b.
func Or(a, b V128) V128 { return V128{a.Lo | b.Lo, a.Hi | b.Hi} }

// Xor returns a ^ b.
func Xor(a, b V128) V128 { return V128{a.Lo ^ b.Lo, a.Hi ^ b.Hi} }

// AndNot returns ^a & b (SSE2 pandn operand order).
func AndNot(a, b V128) V128 { return V128{^a.Lo & b.Lo, ^a.Hi & b.Hi} }

// Not returns ^a (NEON vmvn).
func Not(a V128) V128 { return V128{^a.Lo, ^a.Hi} }

// Select returns (mask & a) | (^mask & b), the NEON vbsl primitive.
func Select(mask, a, b V128) V128 {
	return V128{b.Lo ^ (a.Lo^b.Lo)&mask.Lo, b.Hi ^ (a.Hi^b.Hi)&mask.Hi}
}

// --- branch-free integer lane helpers shared by both ISAs ---
//
// Emulated lane arithmetic must not branch on lane data: a per-lane
// compare-and-jump mispredicts on pixel values and costs more than the
// instruction it models. These helpers compute with masks instead, on
// whole 64-bit words where the lanes allow it (Hacker's Delight ch. 2):
// each lane's top bit is set aside so no carry or borrow crosses into the
// next lane, then restored.

// bit is 1 for true and 0 for false; it compiles to SETcc, not a branch.
func bit(c bool) uint8 {
	var x uint8
	if c {
		x = 1
	}
	return x
}

// Mask32 widens a lane predicate to an all-ones (true) or all-zero 32-bit
// lane mask.
func Mask32(c bool) uint32 { return -uint32(bit(c)) }

const (
	splat8 = 0x0101010101010101 // bit 0 of every byte
	hi8    = 0x8080808080808080 // top bit of every byte
	lsb16  = 0x0001000100010001 // bit 0 of every 16-bit lane
	msb16  = 0x8000800080008000 // bit 15 of every 16-bit lane
	low8   = 0x00FF00FF00FF00FF // low byte of every 16-bit lane
	even16 = 0x0000FFFF0000FFFF // 16-bit lanes 0 and 2 of a word
	low32  = 0x00000000FFFFFFFF // low 32-bit lane of a word
)

// bytes8 widens a per-byte top-bit predicate to 0xFF bytes.
func bytes8(m uint64) uint64 { return (m & hi8 >> 7) * 0xFF }

// lanes16 widens a per-lane bit-15 predicate to 0xFFFF lanes.
func lanes16(m uint64) uint64 { return (m & msb16 >> 15) * 0xFFFF }

// ltU8 returns, per byte of the 64-bit words a and b, 0xFF where a < b
// (unsigned) and 0 elsewhere. The per-byte difference d is formed with
// each lane's top bit set aside so no borrow crosses a lane (Hacker's
// Delight §2-18); a lane's borrow out of bit 7 is then
// (^a & b) | (^(a ^ b) & d) at that bit.
func ltU8(a, b uint64) uint64 {
	d := ((a | hi8) - (b &^ hi8)) ^ ((a ^ ^b) & hi8)
	return bytes8((^a & b) | (^(a ^ b) & d))
}

// nz8 returns 0xFF in every byte of x that is nonzero.
func nz8(x uint64) uint64 { return bytes8((x&^hi8 + ^uint64(hi8)) | x) }

// minMaxU8 returns the per-byte unsigned minimum and maximum of the
// 64-bit words x and y: eight byte lanes at once (vmin.u8/vmax.u8,
// pminub/pmaxub).
func minMaxU8(x, y uint64) (lo, hi uint64) {
	swap := (x ^ y) & ltU8(x, y)
	return y ^ swap, x ^ swap
}

// MinU8 returns the lane-wise unsigned byte minimum.
func MinU8(a, b V128) V128 {
	lo, _ := minMaxU8(a.Lo, b.Lo)
	hi, _ := minMaxU8(a.Hi, b.Hi)
	return V128{lo, hi}
}

// MaxU8 returns the lane-wise unsigned byte maximum.
func MaxU8(a, b V128) V128 {
	_, lo := minMaxU8(a.Lo, b.Lo)
	_, hi := minMaxU8(a.Hi, b.Hi)
	return V128{lo, hi}
}

// MinMaxU8 returns the lane-wise unsigned byte minimum and maximum, MinU8
// and MaxU8 of the same operands from one byte compare per word: a
// compare-exchange (vmin.u8 and vmax.u8, pminub and pmaxub, on one pair).
func MinMaxU8(a, b V128) (lo, hi V128) {
	lo.Lo, hi.Lo = minMaxU8(a.Lo, b.Lo)
	lo.Hi, hi.Hi = minMaxU8(a.Hi, b.Hi)
	return lo, hi
}

// absDiffU8 is the per-byte |a-b| of two words: max-min never borrows, so
// one 64-bit subtract serves eight lanes.
func absDiffU8(a, b uint64) uint64 {
	lo, hi := minMaxU8(a, b)
	return hi - lo
}

// AbsDiffU8 returns the lane-wise unsigned byte |a-b| (vabd.u8, the
// per-lane step of psadbw).
func AbsDiffU8(a, b V128) V128 { return V128{absDiffU8(a.Lo, b.Lo), absDiffU8(a.Hi, b.Hi)} }

// add8 is the per-byte wrapping sum of two words.
func add8(a, b uint64) uint64 { return (a&^hi8 + b&^hi8) ^ (a^b)&hi8 }

// sub8 is the per-byte wrapping difference of two words.
func sub8(a, b uint64) uint64 { return ((a | hi8) - b&^hi8) ^ (a^^b)&hi8 }

// AddU8 returns the lane-wise wrapping byte sum (vadd.i8, paddb).
func AddU8(a, b V128) V128 { return V128{add8(a.Lo, b.Lo), add8(a.Hi, b.Hi)} }

// SubU8 returns the lane-wise wrapping byte difference (vsub.i8, psubb).
func SubU8(a, b V128) V128 { return V128{sub8(a.Lo, b.Lo), sub8(a.Hi, b.Hi)} }

// GtU8 returns 0xFF in every byte lane where a > b, unsigned (vcgt.u8).
func GtU8(a, b V128) V128 { return V128{ltU8(b.Lo, a.Lo), ltU8(b.Hi, a.Hi)} }

// GtI8 returns 0xFF in every byte lane where a > b, signed (pcmpgtb):
// flipping each top bit maps signed order onto unsigned order.
func GtI8(a, b V128) V128 {
	return V128{ltU8(b.Lo^hi8, a.Lo^hi8), ltU8(b.Hi^hi8, a.Hi^hi8)}
}

// EqU8 returns 0xFF in every byte lane where a == b (vceq.i8, pcmpeqb).
func EqU8(a, b V128) V128 { return V128{^nz8(a.Lo ^ b.Lo), ^nz8(a.Hi ^ b.Hi)} }

// TestU8 returns 0xFF in every byte lane where a & b is nonzero (vtst.8).
func TestU8(a, b V128) V128 { return V128{nz8(a.Lo & b.Lo), nz8(a.Hi & b.Hi)} }

// add16 is the per-lane wrapping sum of two words of 16-bit lanes.
func add16(a, b uint64) uint64 { return (a&^msb16 + b&^msb16) ^ (a^b)&msb16 }

// sub16 is the per-lane wrapping difference of two words of 16-bit lanes.
func sub16(a, b uint64) uint64 { return ((a | msb16) - b&^msb16) ^ (a^^b)&msb16 }

// lt16 returns bit 15 set in every 16-bit lane where a < b, signed: the
// sign of a-b, corrected where the subtraction overflowed.
func lt16(a, b uint64) uint64 {
	d := sub16(a, b)
	return (d ^ (a^b)&(a^d)) & msb16
}

// AddU16 returns the lane-wise wrapping 16-bit sum (vadd.i16, paddw).
func AddU16(a, b V128) V128 { return V128{add16(a.Lo, b.Lo), add16(a.Hi, b.Hi)} }

// SubU16 returns the lane-wise wrapping 16-bit difference (vsub.i16,
// psubw).
func SubU16(a, b V128) V128 { return V128{sub16(a.Lo, b.Lo), sub16(a.Hi, b.Hi)} }

// mul16 is the per-lane low half of the 16-bit products of two words. A
// 64-bit multiply would mix lanes, so the four lane multiplies are spelled
// out: a loop or a closure would not inline.
func mul16(a, b uint64) uint64 {
	return uint64(uint16(a)*uint16(b)) |
		uint64(uint16(a>>16)*uint16(b>>16))<<16 |
		uint64(uint16(a>>32)*uint16(b>>32))<<32 |
		uint64(uint16(a>>48)*uint16(b>>48))<<48
}

// mulBy16 is every 16-bit lane of a times c < 2^16, mod 2^16, in two
// multiplies. Lanes 0 and 2 sit 32 bits apart, so each product, below
// 2^32, stays clear of the other (lane 2's bits past 64 are its high half,
// which the lane drops anyway); lanes 1 and 3 take the same shifted down.
func mulBy16(a, c uint64) uint64 {
	return (a&even16)*c&even16 | (a>>16&even16)*c&even16<<16
}

// MulLoU16 returns the low half of each 16-bit lane product (vmul.i16,
// pmullw); signed and unsigned products share it. A broadcast b (the SSE2
// Gaussian's taps, the by-scalar forms) takes two multiplies a word
// (mulBy16), exact mod 2^16 for any a; any other b takes four.
func MulLoU16(a, b V128) V128 {
	if broadcast16(b) {
		c := b.Lo & 0xFFFF
		return V128{mulBy16(a.Lo, c), mulBy16(a.Hi, c)}
	}
	return V128{mul16(a.Lo, b.Lo), mul16(a.Hi, b.Hi)}
}

// MlalU8 returns acc plus the eight 16-bit products of the byte lanes of a
// and b, wrapping (vmlal.u8; vmull.u8 into a zero acc). When b is a
// broadcast c every lane product is at most 255*255 < 2^16, so a widened
// word of a times c is four exact lane products with no carry between
// them: one multiply per four lanes. Any other b widens both and
// multiplies lane by lane.
func MlalU8(acc V128, a, b V64) V128 {
	lo, hi := widen8(a.W&low32), widen8(a.W>>32)
	if c := b.W & 0xFF; b.W == c*splat8 {
		lo, hi = lo*c, hi*c
	} else {
		lo, hi = mul16(lo, widen8(b.W&low32)), mul16(hi, widen8(b.W>>32))
	}
	return V128{add16(acc.Lo, lo), add16(acc.Hi, hi)}
}

// shl16 shifts every 16-bit lane of a left by n; n >= 16 clears them.
func shl16(a uint64, n uint) uint64 { return a << n & (lsb16 * uint64(uint16(0xFFFF)<<n)) }

// shr16 shifts every 16-bit lane of a right by n, filling with zeros;
// n >= 16 clears them.
func shr16(a uint64, n uint) uint64 { return a >> n & (lsb16 * uint64(uint16(0xFFFF)>>n)) }

// ShlU16 shifts every 16-bit lane left by n (vshl.i16, psllw); n >= 16
// clears every lane.
func ShlU16(a V128, n uint) V128 { return V128{shl16(a.Lo, n), shl16(a.Hi, n)} }

// ShrU16 shifts every 16-bit lane right by n, filling with zeros
// (vshr.u16, psrlw); n >= 16 clears every lane.
func ShrU16(a V128, n uint) V128 { return V128{shr16(a.Lo, n), shr16(a.Hi, n)} }

// sar16 shifts every 16-bit lane of a right by n < 16, filling with the
// lane's sign bit: keep masks the bits a logical shift by n keeps in each
// lane, and the sign fills the rest.
func sar16(a uint64, n uint, keep uint64) uint64 { return a>>n&keep | lanes16(a)&^keep }

// SarI16 shifts every int16 lane right by n, filling with the sign bit
// (vshr.s16, psraw); n >= 16 leaves only the sign.
func SarI16(a V128, n uint) V128 {
	n = min(n, 15)
	keep := lsb16 * uint64(uint16(0xFFFF)>>n)
	return V128{sar16(a.Lo, n, keep), sar16(a.Hi, n, keep)}
}

// rshr16 is the per-lane rounding shift (x + 2^(n-1)) >> n of a word of
// uint16 lanes, for n <= 16. It adds the rounding bit after the shift,
// (x >> n) + bit n-1 of x, so the 17-bit intermediate never exists and no
// carry reaches the next lane: a shifted lane is below 2^(16-n). Bit n-1
// lands on bit 0 of its own lane, so lsb16 alone masks it; n = 0 shifts
// by 2^64-1, which reads zero.
func rshr16(a uint64, n uint) uint64 { return shr16(a, n) + a>>(n-1)&lsb16 }

// RoundShrU16 returns the lane-wise uint16 rounding shift
// (x + 2^(n-1)) >> n (vrshr.u16); n = 0 leaves the lanes unchanged.
func RoundShrU16(a V128, n uint) V128 { return V128{rshr16(a.Lo, n), rshr16(a.Hi, n)} }

// RoundShrNarrowU16 is RoundShrU16 narrowed to the low byte of each lane
// (vrshrn.i16), one call for the pair.
func RoundShrNarrowU16(a V128, n uint) V64 {
	return V64{narrow8(rshr16(a.Lo, n)) | narrow8(rshr16(a.Hi, n))<<32}
}

// widen8 zero-extends the four bytes in the low 32 bits of x into the
// four 16-bit lanes of a word.
func widen8(x uint64) uint64 {
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	return (x | x<<8) & low8
}

// narrow8 gathers the low byte of each 16-bit lane of x into the low 32
// bits of a word; it inverts widen8.
func narrow8(x uint64) uint64 {
	x &= low8
	x = (x | x>>8) & 0x0000FFFF0000FFFF
	return (x | x>>16) & low32
}

// WidenU8 zero-extends eight bytes to eight uint16 lanes (vmovl.u8).
func WidenU8(a V64) V128 { return V128{widen8(a.W & low32), widen8(a.W >> 32)} }

// AddlU8 and SublU8 never widen a byte alone. They mask the even and the
// odd bytes of each operand word into the four 16-bit lanes of a word,
// where two bytes sum below 2^9, so one plain 64-bit add serves four
// lanes, and zip16 interleaves the two results back into lane order.
// AddlU8 and AddwU8 fit the inline budget; SublU8's lift and flip take it
// past (cost 88).

// zip16 interleaves the 16-bit lanes of e and o, the results for the even
// and the odd bytes of a word: e0 o0 e1 o1 | e2 o2 e3 o3.
func zip16(e, o uint64) V128 {
	p := e&even16 | o<<16&^even16 // e0 o0 e2 o2
	q := e>>16&even16 | o&^even16 // e1 o1 e3 o3
	return V128{p&low32 | q<<32, p>>32 | q&^low32}
}

// AddlU8 returns the eight 16-bit sums of the widened byte lanes of a and
// b (vaddl.u8).
func AddlU8(a, b V64) V128 {
	return zip16(a.W&low8+b.W&low8, a.W>>8&low8+b.W>>8&low8)
}

// SublU8 returns the eight 16-bit differences of the widened byte lanes of
// a and b, wrapping (vsubl.u8). Each lane of a is lifted by 2^15, which no
// byte of b can borrow through, and the lift is flipped back:
// ((a|0x8000) - b) ^ 0x8000 per lane.
func SublU8(a, b V64) V128 {
	d := zip16((a.W&low8|msb16)-b.W&low8, (a.W>>8&low8|msb16)-b.W>>8&low8)
	return V128{d.Lo ^ msb16, d.Hi ^ msb16}
}

// AddwU8 returns a plus the widened byte lanes of b, wrapping (vaddw.u8):
// add16 with b's top bits known clear.
func AddwU8(a V128, b V64) V128 {
	return V128{(a.Lo&^msb16 + widen8(b.W&low32)) ^ a.Lo&msb16, (a.Hi&^msb16 + widen8(b.W>>32)) ^ a.Hi&msb16}
}

// NarrowU16 keeps the low byte of each 16-bit lane (vmovn.i16).
func NarrowU16(a V128) V64 { return V64{narrow8(a.Lo) | narrow8(a.Hi)<<32} }

// InterleaveLoU8 interleaves the low eight bytes of a and b, a first
// (punpcklbw, vzip.8 low half). Against a zero b, the SSE2 idiom for a
// zero-extending widen, b's bytes contribute nothing and it is WidenU8.
func InterleaveLoU8(a, b V128) V128 {
	lo, hi := widen8(a.Lo&low32), widen8(a.Lo>>32)
	if b.Lo != 0 {
		lo, hi = lo|widen8(b.Lo&low32)<<8, hi|widen8(b.Lo>>32)<<8
	}
	return V128{lo, hi}
}

// --- split layout ---
//
// A chain of u8 taps widened against zero (punpcklbw), multiplied by
// broadcast taps (pmullw), summed (paddw), rounded, shifted (psrlw) and
// packed back to bytes with itself (packuswb) can run on split registers
// when SplitFits shows that no lane of it carries or saturates: Lo holds
// the 16-bit lanes of the even bytes of a row, Hi those of the odd bytes.
// Widening is then one mask per word, each tap one multiply and one plain
// add per word, and the pack a mask and a shift. A per-lane shift does not
// care which lane sits where, so it runs on split registers unchanged.
// cmd/lanegen writes these calls into the lane twins, behind SplitFits; a
// split register means nothing outside such a chain.

// SplitFits is a split chain's row test: z is zero, every tap a 16-bit
// broadcast below 2^8, h a broadcast, and 255 times the taps' sum plus h,
// the most a lane can reach, stays below 2^16 and, shifted right by n,
// below 2^8. The chain may use each tap at most once.
func SplitFits(z V128, taps []V128, h V128, n uint) bool {
	if z != (V128{}) || !broadcast16(h) {
		return false
	}
	var sum uint64
	for _, t := range taps {
		if !broadcast16(t) || t.Lo&0xFFFF > 0xFF {
			return false
		}
		sum += t.Lo & 0xFFFF
	}
	top := 255*sum + h.Lo&0xFFFF
	return top < 1<<16 && top>>n < 1<<8
}

// broadcast16 reports whether every 16-bit lane of v holds the same value.
func broadcast16(v V128) bool { return v.Lo == v.Lo&0xFFFF*lsb16 && v.Hi == v.Lo }

// SplitU8 is punpcklbw of a's low eight bytes against zero, split: one mask
// per word.
func SplitU8(a V128) V128 { return V128{a.Lo & low8, a.Lo >> 8 & low8} }

// SplitMulU16 is pmullw by a broadcast tap t, split: one multiply per word,
// exact while no lane product reaches 2^16.
func SplitMulU16(a, t V128) V128 {
	c := t.Lo & 0xFFFF
	return V128{a.Lo * c, a.Hi * c}
}

// SplitAddU16 is paddw, split: one plain add per word, exact while no lane
// sum reaches 2^16.
func SplitAddU16(a, b V128) V128 { return V128{a.Lo + b.Lo, a.Hi + b.Hi} }

// SplitPackU8 is packuswb of a split register with itself, in lane order:
// a shift and an or, exact while every lane is below 2^8.
func SplitPackU8(a V128) V128 {
	w := a.Lo | a.Hi<<8
	return V128{w, w}
}

// InterleaveHiU8 interleaves the high eight bytes of a and b, a first
// (punpckhbw).
func InterleaveHiU8(a, b V128) V128 {
	return InterleaveLoU8(V128{Lo: a.Hi}, V128{Lo: b.Hi})
}

// satU8 clamps every int16 lane of w to 0..255, leaving the result in the
// lane's low byte.
func satU8(w uint64) uint64 {
	const c = 0x7F007F007F007F00 // bits 8..14: set in any lane above 255
	big := lanes16(w&c + c)
	return (w | big) &^ lanes16(w) & low8
}

// satI8 clamps every int16 lane of w to -128..127, leaving the result in
// the lane's low byte.
func satI8(w uint64) uint64 {
	const c = 0x7F807F807F807F80 // bits 7..14: not all sign copies when out of range
	pos := (w&c + c) &^ w & msb16
	neg := (^w&c + c) & w & msb16
	return (w&^lanes16(pos|neg) | (pos>>15)*0x7F | (neg>>15)*0x80) & low8
}

// SatU8I16 narrows int16 lanes to uint8 with unsigned saturation
// (vqmovun.s16, one half of packuswb).
func SatU8I16(a V128) V64 { return V64{narrow8(satU8(a.Lo)) | narrow8(satU8(a.Hi))<<32} }

// SatI8I16 narrows int16 lanes to int8 with signed saturation
// (vqmovn.s16, one half of packsswb).
func SatI8I16(a V128) V64 { return V64{narrow8(satI8(a.Lo)) | narrow8(satI8(a.Hi))<<32} }

// sat16 clamps each of the two int32 lanes of w to int16 and packs the
// results into the low 32 bits; min and max compile to conditional moves,
// not branches.
func sat16(w uint64) uint64 {
	return uint64(uint16(min(max(int32(w), math.MinInt16), math.MaxInt16))) |
		uint64(uint16(min(max(int32(w>>32), math.MinInt16), math.MaxInt16)))<<16
}

// SatI16I32 narrows four int32 lanes to int16 with signed saturation
// (vqmovn.s32, one half of packssdw), two lanes from each word.
func SatI16I32(a V128) V64 { return V64{sat16(a.Lo) | sat16(a.Hi)<<32} }

// addsI16 is the per-lane signed saturating sum of two words: where the
// operands share a sign the sum does not, the lane takes 0x7FFF or 0x8000
// by that sign.
func addsI16(a, b uint64) uint64 {
	s := add16(a, b)
	ov := lanes16(^(a ^ b) & (a ^ s))
	limit := a&msb16>>15 + ^uint64(msb16)
	return s&^ov | limit&ov
}

// subsI16 is the per-lane signed saturating difference of two words.
func subsI16(a, b uint64) uint64 {
	d := sub16(a, b)
	ov := lanes16((a ^ b) & (a ^ d))
	limit := a&msb16>>15 + ^uint64(msb16)
	return d&^ov | limit&ov
}

// AddSatI16 returns the lane-wise int16 saturating sum (vqadd.s16,
// paddsw).
func AddSatI16(a, b V128) V128 { return V128{addsI16(a.Lo, b.Lo), addsI16(a.Hi, b.Hi)} }

// SubSatI16 returns the lane-wise int16 saturating difference (vqsub.s16,
// psubsw).
func SubSatI16(a, b V128) V128 { return V128{subsI16(a.Lo, b.Lo), subsI16(a.Hi, b.Hi)} }

// abs16 is the per-lane int16 |x| of a word, MinInt16 wrapping to itself:
// negative lanes are complemented and incremented, which never carries
// out of the lane.
func abs16(a uint64) uint64 {
	neg := a & msb16 >> 15
	return a ^ neg*0xFFFF + neg
}

// AbsI16 returns the lane-wise int16 absolute value, MinInt16 wrapping
// (vabs.s16).
func AbsI16(a V128) V128 { return V128{abs16(a.Lo), abs16(a.Hi)} }

// AbsSatI16 returns the lane-wise int16 absolute value with MinInt16
// saturating to MaxInt16 (vqabs.s16): only that lane reads 0x8000 after
// abs16, and taking one from it borrows nothing.
func AbsSatI16(a V128) V128 {
	lo, hi := abs16(a.Lo), abs16(a.Hi)
	return V128{lo - lo&msb16>>15, hi - hi&msb16>>15}
}

// GtI16 returns 0xFFFF in every int16 lane where a > b (vcgt.s16,
// pcmpgtw).
func GtI16(a, b V128) V128 { return V128{lanes16(lt16(b.Lo, a.Lo)), lanes16(lt16(b.Hi, a.Hi))} }

// eq16 returns 0xFFFF in every 16-bit lane where a == b.
func eq16(a, b uint64) uint64 {
	x := a ^ b
	return ^lanes16(x&^msb16 + ^uint64(msb16) | x)
}

// EqU16 returns 0xFFFF in every 16-bit lane where a == b (vceq.i16,
// pcmpeqw).
func EqU16(a, b V128) V128 { return V128{eq16(a.Lo, b.Lo), eq16(a.Hi, b.Hi)} }

// minI16 returns the per-lane int16 minimum of two words.
func minI16(a, b uint64) uint64 { return b ^ (a^b)&lanes16(lt16(a, b)) }

// maxI16 returns the per-lane int16 maximum of two words.
func maxI16(a, b uint64) uint64 { return a ^ (a^b)&lanes16(lt16(a, b)) }

// MinI16 returns the lane-wise int16 minimum (vmin.s16, pminsw).
func MinI16(a, b V128) V128 { return V128{minI16(a.Lo, b.Lo), minI16(a.Hi, b.Hi)} }

// MaxI16 returns the lane-wise int16 maximum (vmax.s16, pmaxsw).
func MaxI16(a, b V128) V128 { return V128{maxI16(a.Lo, b.Lo), maxI16(a.Hi, b.Hi)} }

// Zero is the all-zeroes register value.
func Zero() V128 { return V128{} }

// Ones is the all-ones register value.
func Ones() V128 { return V128{math.MaxUint64, math.MaxUint64} }

// Splat8 broadcasts a byte to every byte lane.
func Splat8(x uint8) V128 {
	w := uint64(x) * 0x0101010101010101
	return V128{w, w}
}

// Splat16 broadcasts a 16-bit value to every 16-bit lane.
func Splat16(x uint16) V128 {
	w := uint64(x) * lsb16
	return V128{w, w}
}

// String renders the register as hex bytes, low lane first, matching
// debugger output conventions for little-endian SIMD registers.
func (v V128) String() string {
	b := v.ToU8x16()
	return hexBytes("V128{", b[:])
}

// String renders the register as hex bytes, low lane first.
func (v V64) String() string {
	b := v.ToU8x8()
	return hexBytes("V64{", b[:])
}

func hexBytes(prefix string, b []byte) string {
	var sb strings.Builder
	sb.WriteString(prefix)
	for i, x := range b {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%02x", x)
	}
	sb.WriteByte('}')
	return sb.String()
}
