// Package vec provides the register value model shared by the NEON and SSE2
// intrinsic emulation layers.
//
// A V128 corresponds to an SSE XMM register or a NEON quad-word Q register;
// a V64 corresponds to an MMX register or a NEON double-word D register.
// Lanes are stored little-endian, exactly as on both target architectures,
// so reinterpreting bit patterns between element types behaves as it does in
// hardware (e.g. NEON vreinterpret, SSE2 casts).
package vec

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// V128 is a 128-bit SIMD register value (XMM / NEON Q register).
type V128 [16]byte

// V64 is a 64-bit SIMD register value (MMX / NEON D register).
type V64 [8]byte

// --- V128 lane accessors ---

// U8 returns unsigned byte lane i (0..15).
func (v V128) U8(i int) uint8 { return v[i] }

// SetU8 sets unsigned byte lane i.
func (v *V128) SetU8(i int, x uint8) { v[i] = x }

// I8 returns signed byte lane i.
func (v V128) I8(i int) int8 { return int8(v[i]) }

// SetI8 sets signed byte lane i.
func (v *V128) SetI8(i int, x int8) { v[i] = byte(x) }

// U16 returns unsigned 16-bit lane i (0..7).
func (v V128) U16(i int) uint16 { return binary.LittleEndian.Uint16(v[2*i:]) }

// SetU16 sets unsigned 16-bit lane i.
func (v *V128) SetU16(i int, x uint16) { binary.LittleEndian.PutUint16(v[2*i:], x) }

// I16 returns signed 16-bit lane i.
func (v V128) I16(i int) int16 { return int16(v.U16(i)) }

// SetI16 sets signed 16-bit lane i.
func (v *V128) SetI16(i int, x int16) { v.SetU16(i, uint16(x)) }

// U32 returns unsigned 32-bit lane i (0..3).
func (v V128) U32(i int) uint32 { return binary.LittleEndian.Uint32(v[4*i:]) }

// SetU32 sets unsigned 32-bit lane i.
func (v *V128) SetU32(i int, x uint32) { binary.LittleEndian.PutUint32(v[4*i:], x) }

// I32 returns signed 32-bit lane i.
func (v V128) I32(i int) int32 { return int32(v.U32(i)) }

// SetI32 sets signed 32-bit lane i.
func (v *V128) SetI32(i int, x int32) { v.SetU32(i, uint32(x)) }

// U64 returns unsigned 64-bit lane i (0..1).
func (v V128) U64(i int) uint64 { return binary.LittleEndian.Uint64(v[8*i:]) }

// SetU64 sets unsigned 64-bit lane i.
func (v *V128) SetU64(i int, x uint64) { binary.LittleEndian.PutUint64(v[8*i:], x) }

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

// U16At returns unsigned 16-bit lane i of *v. Lane loops read through it:
// an inlined value-receiver accessor copies all 16 bytes of the register
// on every call.
func U16At(v *V128, i int) uint16 { return binary.LittleEndian.Uint16(v[2*i:]) }

// I16At returns signed 16-bit lane i of *v, like U16At.
func I16At(v *V128, i int) int16 { return int16(U16At(v, i)) }

// U64At returns 64-bit lane i of *v, like U16At.
func U64At(v *V128, i int) uint64 { return binary.LittleEndian.Uint64(v[8*i:]) }

// Low returns the low 64 bits as a V64 (NEON: the D register aliasing the
// low half of a Q register).
func (v V128) Low() V64 {
	var d V64
	copy(d[:], v[:8])
	return d
}

// High returns the high 64 bits as a V64.
func (v V128) High() V64 {
	var d V64
	copy(d[:], v[8:])
	return d
}

// Combine builds a V128 from two V64 halves (NEON vcombine).
func Combine(lo, hi V64) V128 {
	var q V128
	copy(q[:8], lo[:])
	copy(q[8:], hi[:])
	return q
}

// --- V64 lane accessors ---

// U8 returns unsigned byte lane i (0..7).
func (v V64) U8(i int) uint8 { return v[i] }

// SetU8 sets unsigned byte lane i.
func (v *V64) SetU8(i int, x uint8) { v[i] = x }

// I8 returns signed byte lane i.
func (v V64) I8(i int) int8 { return int8(v[i]) }

// SetI8 sets signed byte lane i.
func (v *V64) SetI8(i int, x int8) { v[i] = byte(x) }

// U16 returns unsigned 16-bit lane i (0..3).
func (v V64) U16(i int) uint16 { return binary.LittleEndian.Uint16(v[2*i:]) }

// SetU16 sets unsigned 16-bit lane i.
func (v *V64) SetU16(i int, x uint16) { binary.LittleEndian.PutUint16(v[2*i:], x) }

// I16 returns signed 16-bit lane i.
func (v V64) I16(i int) int16 { return int16(v.U16(i)) }

// SetI16 sets signed 16-bit lane i.
func (v *V64) SetI16(i int, x int16) { v.SetU16(i, uint16(x)) }

// U32 returns unsigned 32-bit lane i (0..1).
func (v V64) U32(i int) uint32 { return binary.LittleEndian.Uint32(v[4*i:]) }

// SetU32 sets unsigned 32-bit lane i.
func (v *V64) SetU32(i int, x uint32) { binary.LittleEndian.PutUint32(v[4*i:], x) }

// I32 returns signed 32-bit lane i.
func (v V64) I32(i int) int32 { return int32(v.U32(i)) }

// SetI32 sets signed 32-bit lane i.
func (v *V64) SetI32(i int, x int32) { v.SetU32(i, uint32(x)) }

// U64 returns the whole register as an unsigned 64-bit value.
func (v V64) U64() uint64 { return binary.LittleEndian.Uint64(v[:]) }

// SetU64 sets the whole register.
func (v *V64) SetU64(x uint64) { binary.LittleEndian.PutUint64(v[:], x) }

// I64 returns the whole register as a signed 64-bit value.
func (v V64) I64() int64 { return int64(v.U64()) }

// SetI64 sets the whole register from a signed value.
func (v *V64) SetI64(x int64) { v.SetU64(uint64(x)) }

// F32 returns 32-bit float lane i (0..1).
func (v V64) F32(i int) float32 { return math.Float32frombits(v.U32(i)) }

// SetF32 sets 32-bit float lane i.
func (v *V64) SetF32(i int, x float32) { v.SetU32(i, math.Float32bits(x)) }

// --- constructors / extractors ---

// FromU8x16 packs sixteen bytes into a V128.
func FromU8x16(x [16]uint8) V128 { return V128(x) }

// FromI8x16 packs sixteen signed bytes into a V128.
func FromI8x16(x [16]int8) V128 {
	var v V128
	for i, e := range x {
		v.SetI8(i, e)
	}
	return v
}

// FromU16x8 packs eight uint16 lanes into a V128.
func FromU16x8(x [8]uint16) V128 {
	var v V128
	for i, e := range x {
		v.SetU16(i, e)
	}
	return v
}

// FromI16x8 packs eight int16 lanes into a V128.
func FromI16x8(x [8]int16) V128 {
	var v V128
	for i, e := range x {
		v.SetI16(i, e)
	}
	return v
}

// FromU32x4 packs four uint32 lanes into a V128.
func FromU32x4(x [4]uint32) V128 {
	var v V128
	for i, e := range x {
		v.SetU32(i, e)
	}
	return v
}

// FromI32x4 packs four int32 lanes into a V128.
func FromI32x4(x [4]int32) V128 {
	var v V128
	for i, e := range x {
		v.SetI32(i, e)
	}
	return v
}

// FromU64x2 packs two uint64 lanes into a V128.
func FromU64x2(x [2]uint64) V128 {
	var v V128
	for i, e := range x {
		v.SetU64(i, e)
	}
	return v
}

// FromI64x2 packs two int64 lanes into a V128.
func FromI64x2(x [2]int64) V128 {
	var v V128
	for i, e := range x {
		v.SetI64(i, e)
	}
	return v
}

// FromF32x4 packs four float32 lanes into a V128.
func FromF32x4(x [4]float32) V128 {
	var v V128
	for i, e := range x {
		v.SetF32(i, e)
	}
	return v
}

// FromF64x2 packs two float64 lanes into a V128.
func FromF64x2(x [2]float64) V128 {
	var v V128
	for i, e := range x {
		v.SetF64(i, e)
	}
	return v
}

// ToU8x16 extracts all byte lanes.
func (v V128) ToU8x16() [16]uint8 { return [16]uint8(v) }

// ToI8x16 extracts all signed byte lanes.
func (v V128) ToI8x16() [16]int8 {
	var x [16]int8
	for i := range x {
		x[i] = v.I8(i)
	}
	return x
}

// ToU16x8 extracts all uint16 lanes.
func (v V128) ToU16x8() [8]uint16 {
	var x [8]uint16
	for i := range x {
		x[i] = U16At(&v, i)
	}
	return x
}

// ToI16x8 extracts all int16 lanes.
func (v V128) ToI16x8() [8]int16 {
	var x [8]int16
	for i := range x {
		x[i] = I16At(&v, i)
	}
	return x
}

// ToU32x4 extracts all uint32 lanes.
func (v V128) ToU32x4() [4]uint32 {
	var x [4]uint32
	for i := range x {
		x[i] = v.U32(i)
	}
	return x
}

// ToI32x4 extracts all int32 lanes.
func (v V128) ToI32x4() [4]int32 {
	var x [4]int32
	for i := range x {
		x[i] = v.I32(i)
	}
	return x
}

// ToF32x4 extracts all float32 lanes.
func (v V128) ToF32x4() [4]float32 {
	var x [4]float32
	for i := range x {
		x[i] = v.F32(i)
	}
	return x
}

// ToF64x2 extracts both float64 lanes.
func (v V128) ToF64x2() [2]float64 {
	return [2]float64{v.F64(0), v.F64(1)}
}

// ToI64x2 extracts both int64 lanes.
func (v V128) ToI64x2() [2]int64 {
	return [2]int64{v.I64(0), v.I64(1)}
}

// FromU8x8 packs eight bytes into a V64.
func FromU8x8(x [8]uint8) V64 { return V64(x) }

// FromI8x8 packs eight signed bytes into a V64.
func FromI8x8(x [8]int8) V64 {
	var v V64
	for i, e := range x {
		v.SetI8(i, e)
	}
	return v
}

// FromU16x4 packs four uint16 lanes into a V64.
func FromU16x4(x [4]uint16) V64 {
	var v V64
	for i, e := range x {
		v.SetU16(i, e)
	}
	return v
}

// FromI16x4 packs four int16 lanes into a V64.
func FromI16x4(x [4]int16) V64 {
	var v V64
	for i, e := range x {
		v.SetI16(i, e)
	}
	return v
}

// FromU32x2 packs two uint32 lanes into a V64.
func FromU32x2(x [2]uint32) V64 {
	var v V64
	for i, e := range x {
		v.SetU32(i, e)
	}
	return v
}

// FromI32x2 packs two int32 lanes into a V64.
func FromI32x2(x [2]int32) V64 {
	var v V64
	for i, e := range x {
		v.SetI32(i, e)
	}
	return v
}

// FromF32x2 packs two float32 lanes into a V64.
func FromF32x2(x [2]float32) V64 {
	var v V64
	for i, e := range x {
		v.SetF32(i, e)
	}
	return v
}

// ToU8x8 extracts all byte lanes of a V64.
func (v V64) ToU8x8() [8]uint8 { return [8]uint8(v) }

// ToI8x8 extracts all signed byte lanes of a V64.
func (v V64) ToI8x8() [8]int8 {
	var x [8]int8
	for i := range x {
		x[i] = v.I8(i)
	}
	return x
}

// ToU16x4 extracts all uint16 lanes of a V64.
func (v V64) ToU16x4() [4]uint16 {
	var x [4]uint16
	for i := range x {
		x[i] = v.U16(i)
	}
	return x
}

// ToI16x4 extracts all int16 lanes of a V64.
func (v V64) ToI16x4() [4]int16 {
	var x [4]int16
	for i := range x {
		x[i] = v.I16(i)
	}
	return x
}

// ToI32x2 extracts both int32 lanes of a V64.
func (v V64) ToI32x2() [2]int32 {
	return [2]int32{v.I32(0), v.I32(1)}
}

// ToU32x2 extracts both uint32 lanes of a V64.
func (v V64) ToU32x2() [2]uint32 {
	return [2]uint32{v.U32(0), v.U32(1)}
}

// ToF32x2 extracts both float32 lanes of a V64.
func (v V64) ToF32x2() [2]float32 {
	return [2]float32{v.F32(0), v.F32(1)}
}

// --- memory transfers ---

// LoadV128 reads 16 bytes from b (little-endian lane order, as on both ISAs).
// It panics if b is shorter than 16 bytes, like a hardware fault on a bad
// address.
func LoadV128(b []byte) V128 {
	var v V128
	copy(v[:], b[:16])
	return v
}

// StoreV128 writes 16 bytes to b.
func StoreV128(b []byte, v V128) { copy(b[:16], v[:]) }

// LoadV64 reads 8 bytes from b.
func LoadV64(b []byte) V64 {
	var v V64
	copy(v[:], b[:8])
	return v
}

// StoreV64 writes 8 bytes to b.
func StoreV64(b []byte, v V64) { copy(b[:8], v[:]) }

// --- bitwise helpers shared by both ISAs ---

// And returns a & b.
func And(a, b V128) V128 {
	var r V128
	for i := range r {
		r[i] = a[i] & b[i]
	}
	return r
}

// Or returns a | b.
func Or(a, b V128) V128 {
	var r V128
	for i := range r {
		r[i] = a[i] | b[i]
	}
	return r
}

// Xor returns a ^ b.
func Xor(a, b V128) V128 {
	var r V128
	for i := range r {
		r[i] = a[i] ^ b[i]
	}
	return r
}

// AndNot returns ^a & b (SSE2 pandn operand order).
func AndNot(a, b V128) V128 {
	var r V128
	for i := range r {
		r[i] = ^a[i] & b[i]
	}
	return r
}

// Not returns ^a (NEON vmvn).
func Not(a V128) V128 {
	var r V128
	for i := range r {
		r[i] = ^a[i]
	}
	return r
}

// Select returns (mask & a) | (^mask & b), the NEON vbsl primitive.
func Select(mask, a, b V128) V128 {
	var r V128
	for i := range r {
		r[i] = (mask[i] & a[i]) | (^mask[i] & b[i])
	}
	return r
}

// --- branch-free integer lane helpers shared by both ISAs ---
//
// Emulated lane arithmetic must not branch on lane data: a per-lane
// compare-and-jump mispredicts on pixel values and costs more than the
// instruction it models. These helpers compute with masks instead.

// bit is 1 for true and 0 for false; it compiles to SETcc, not a branch.
func bit(c bool) uint8 {
	var x uint8
	if c {
		x = 1
	}
	return x
}

// Mask8 widens a lane predicate to an all-ones (true) or all-zero byte
// mask.
func Mask8(c bool) uint8 { return -bit(c) }

// Mask16 widens a lane predicate to a 16-bit lane mask.
func Mask16(c bool) uint16 { return -uint16(bit(c)) }

// Mask32 widens a lane predicate to a 32-bit lane mask.
func Mask32(c bool) uint32 { return -uint32(bit(c)) }

// hi8 holds the top bit of every byte of a 64-bit word.
const hi8 = 0x8080808080808080

// ltU8 returns, per byte of the 64-bit words a and b, 0xFF where a < b
// (unsigned) and 0 elsewhere. The per-byte difference d is formed with
// each lane's top bit set aside so no borrow crosses a lane (Hacker's
// Delight §2-18); a lane's borrow out of bit 7 is then
// (^a & b) | (^(a ^ b) & d) at that bit.
func ltU8(a, b uint64) uint64 {
	d := ((a | hi8) - (b &^ hi8)) ^ ((a ^ ^b) & hi8)
	lt := ((^a & b) | (^(a ^ b) & d)) & hi8
	return (lt >> 7) * 0xFF
}

// MinMaxU8x8 returns the per-byte unsigned minimum and maximum of the
// 64-bit words x and y: eight byte lanes at once (vmin.u8/vmax.u8,
// pminub/pmaxub). It inlines, so an intrinsic that loops over its two
// words with U64At pays no call.
func MinMaxU8x8(x, y uint64) (lo, hi uint64) {
	swap := (x ^ y) & ltU8(x, y)
	return y ^ swap, x ^ swap
}

// AbsDiffU8 returns the lane-wise unsigned byte |a-b| (vabd.u8, the
// per-lane step of psadbw). max-min never borrows, so one 64-bit subtract
// serves eight lanes.
func AbsDiffU8(a, b V128) V128 {
	var r V128
	for i := 0; i < 2; i++ {
		lo, hi := MinMaxU8x8(U64At(&a, i), U64At(&b, i))
		r.SetU64(i, hi-lo)
	}
	return r
}

// MinI16 returns the lane-wise int16 minimum (vmin.s16, pminsw).
func MinI16(a, b V128) V128 {
	var r V128
	for i := 0; i < 8; i++ {
		x, y := int32(I16At(&a, i)), int32(I16At(&b, i))
		d := x - y
		r.SetI16(i, int16(y+d&(d>>31)))
	}
	return r
}

// MaxI16 returns the lane-wise int16 maximum (vmax.s16, pmaxsw).
func MaxI16(a, b V128) V128 {
	var r V128
	for i := 0; i < 8; i++ {
		x, y := int32(I16At(&a, i)), int32(I16At(&b, i))
		d := x - y
		r.SetI16(i, int16(x-d&(d>>31)))
	}
	return r
}

// Zero is the all-zeroes register value.
func Zero() V128 { return V128{} }

// Ones is the all-ones register value.
func Ones() V128 {
	var v V128
	for i := range v {
		v[i] = 0xFF
	}
	return v
}

// String renders the register as hex bytes, low lane first, matching
// debugger output conventions for little-endian SIMD registers.
func (v V128) String() string {
	var sb strings.Builder
	sb.WriteString("V128{")
	for i, b := range v {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%02x", b)
	}
	sb.WriteByte('}')
	return sb.String()
}

// String renders the register as hex bytes, low lane first.
func (v V64) String() string {
	var sb strings.Builder
	sb.WriteString("V64{")
	for i, b := range v {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%02x", b)
	}
	sb.WriteByte('}')
	return sb.String()
}
