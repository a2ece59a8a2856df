// Package neon is a bit-exact software emulation of the ARMv7 Advanced SIMD
// (NEON) intrinsic functions used by the paper, together with dynamic
// instruction accounting.
//
// Intrinsics are methods on a Unit. Each call both computes the exact NEON
// result on vec.V64 (D register) / vec.V128 (Q register) values and records
// the retired instruction into the Unit's trace.Counter, so kernels written
// against this package yield real instruction-per-pixel counts for the
// timing model. A Unit with a nil counter skips accounting and is safe to
// use as a pure functional SIMD library.
//
// Method names follow the ARM intrinsic naming convention from the paper's
// Section II-C ([intrin_op][flags]_[type]): vld1q_f32 becomes Vld1qF32,
// vqmovn_s32 becomes VqmovnS32, and so on. The q flag denotes quad-word
// (128-bit) Q-register forms.
package neon

import (
	"simdstudy/internal/faults"
	"simdstudy/internal/obs"
	"simdstudy/internal/trace"
	"simdstudy/internal/vec"
)

// Unit is an emulated NEON execution unit. The zero value performs no
// instruction accounting.
type Unit struct {
	T *trace.Counter

	// F, when non-nil, is consulted at every instrumented intrinsic and may
	// corrupt the value produced (or the address used), turning the unit
	// into a fault-injection target. See internal/faults.
	F faults.Injector

	// Obs, when non-nil, receives Session spans so stretches of intrinsic
	// work appear as slices in the exported Chrome trace.
	Obs *obs.Registry

	// tl tallies retired instructions for T until Flush; it holds a
	// pooled count array only while counts are pending, so an untraced
	// unit carries none.
	tl trace.Tally

	// cnt caches tl's count array while tl is bound to T, so a traced
	// record is one inline increment. Flush and Share clear it; flush the
	// unit before pointing T at another counter.
	cnt *[trace.MaxOps]uint64
}

// New returns a Unit recording into t (which may be nil).
func New(t *trace.Counter) *Unit { return &Unit{T: t} }

// Session opens an observability span named "neon.<name>" covering a
// stretch of intrinsic work (one SIMD pass of a kernel, a custom-kernel
// run). The span samples the unit's trace counter, flushing the unit's
// tally at open and at End, so its instruction delta is attributed
// exactly. Nested under parent when given; returns nil (all methods of
// which are no-ops) when no registry is attached.
func (u *Unit) Session(name string, parent *obs.Span) *obs.Span {
	if u.Obs == nil {
		return nil
	}
	var sp *obs.Span
	if parent != nil {
		sp = parent.Child("neon." + name)
	} else {
		sp = u.Obs.StartSpan("neon." + name)
	}
	if t := u.T; t != nil {
		sp.SampleInstr(func() uint64 {
			u.Flush()
			return t.Total()
		})
	}
	return sp
}

// fault routes an intrinsic result (or store operand) through the unit's
// fault hook, if any. It is the single choke point fault injection uses, so
// every instrumented intrinsic is a potential fault site. Only the nil
// check inlines into the intrinsics; the hook call is out of line, so a
// unit without an injector pays no call.
func fault[V vec.V128 | vec.V64](u *Unit, site faults.Site, r V) V {
	if u.F == nil {
		return r
	}
	return injectFault(u, site, r)
}

// injectFault hands r to the unit's fault hook.
func injectFault[V vec.V128 | vec.V64](u *Unit, site faults.Site, r V) V {
	switch v := any(r).(type) {
	case vec.V128:
		return any(u.F.V128(site, v)).(V)
	case vec.V64:
		return any(u.F.V64(site, v)).(V)
	}
	return r
}

// skewed gives the fault hook a chance to slip a load/store base address by
// one element, provided the slice has slack beyond the need elements the
// intrinsic will touch (a real address slip would fault otherwise).
func skewed[T any](u *Unit, site faults.Site, p []T, need int) []T {
	if u.F == nil {
		return p
	}
	return skew(u, site, p, need)
}

// skew asks the unit's fault hook for an address slip. It stays out of
// line so skewed, and with it every load and store, inlines.
//
//go:noinline
func skew[T any](u *Unit, site faults.Site, p []T, need int) []T {
	if off := u.F.Skew(site, len(p)-need); off > 0 {
		return p[off:]
	}
	return p
}

// rec notes one retired instruction. It inlines into the intrinsics: once
// the tally is bound, a traced record is one increment of the cached count
// array, and an untraced unit pays two nil checks and no call.
func (u *Unit) rec(id trace.OpID) {
	if u.cnt != nil {
		u.cnt[id]++
	} else if u.T != nil {
		u.tally(id)
	}
}

// recN notes n retired instances of id, as rec notes one, with no
// sequence capture.
func (u *Unit) recN(id trace.OpID, n int) {
	if u.cnt != nil {
		u.cnt[id] += uint64(n)
	} else if u.T != nil {
		u.tallyN(id, n)
	}
}

// tally counts one retired instruction in the unit's tally and caches the
// count array it is now bound to.
func (u *Unit) tally(id trace.OpID) {
	u.tl.Inc(u.T, id)
	u.bind()
}

// tallyN is tally for recN.
func (u *Unit) tallyN(id trace.OpID, n int) {
	u.tl.Add(u.T, id, uint64(n))
	u.bind()
}

// bind caches the count array the tally is bound to, if any. It writes
// only a bound array: a shared unit's tally never binds, so its
// concurrent records leave cnt untouched.
func (u *Unit) bind() {
	if n := u.tl.Counts(u.T); n != nil {
		u.cnt = n
	}
}

// Count notes n retired instances of id with no sequence capture: bulk
// accounting for instructions the caller models rather than emulates,
// tallied with the unit's own.
func (u *Unit) Count(id trace.OpID, n uint64) {
	if u.T != nil && n != 0 {
		u.tl.Add(u.T, id, n)
	}
}

// Flush folds the instructions tallied since the last Flush into T. A unit
// records into a private, unsynchronized tally, so T reads stale until the
// unit is flushed: internal/cv flushes as each pass completes, and callers
// that drive a unit directly flush before reading T. Flush is idempotent.
func (u *Unit) Flush() {
	u.cnt = nil
	u.tl.Flush()
}

// Share makes the unit safe to record from several goroutines at once:
// each instruction then goes straight into T under T's lock instead of into
// the private tally. Call it before the unit is shared.
func (u *Unit) Share() {
	u.cnt = nil
	u.tl.Share()
}

// Overhead records loop/address bookkeeping instructions that surround the
// intrinsic body in compiled code: the paper's Section V counts 6 such
// instructions (address adds, compare, branch, moves) per 8-pixel iteration.
func (u *Unit) Overhead(addrCalcs, branches, moves int) {
	u.recN(opAddMovAddr, addrCalcs)
	u.recN(opCmpB, branches)
	u.recN(opMov, moves)
}

// --- Data movement: loads ---

// Vld1qF32 loads four consecutive float32 (vld1.32 {dN-dN+1}).
func (u *Unit) Vld1qF32(p []float32) vec.V128 {
	u.rec(opVld1_32x16)
	p = skewed(u, faults.SiteLoad, p, 4)
	return fault(u, faults.SiteLoad, vec.FromF32x4([4]float32{p[0], p[1], p[2], p[3]}))
}

// Vld1F32 loads two consecutive float32 into a D register.
func (u *Unit) Vld1F32(p []float32) vec.V64 {
	u.rec(opVld1_32x8)
	p = skewed(u, faults.SiteLoad, p, 2)
	return fault(u, faults.SiteLoad, vec.FromF32x2([2]float32{p[0], p[1]}))
}

// Vld1qU8 loads sixteen consecutive uint8.
func (u *Unit) Vld1qU8(p []uint8) vec.V128 {
	u.rec(opVld1_8x16)
	p = skewed(u, faults.SiteLoad, p, 16)
	return fault(u, faults.SiteLoad, vec.LoadV128(p))
}

// Vld1U8 loads eight consecutive uint8 into a D register.
func (u *Unit) Vld1U8(p []uint8) vec.V64 {
	u.rec(opVld1_8x8)
	p = skewed(u, faults.SiteLoad, p, 8)
	return fault(u, faults.SiteLoad, vec.LoadV64(p))
}

// Vld1qS8 loads sixteen consecutive int8.
func (u *Unit) Vld1qS8(p []int8) vec.V128 {
	u.rec(opVld1_8x16)
	p = skewed(u, faults.SiteLoad, p, 16)
	var a [16]int8
	copy(a[:], p[:16])
	return fault(u, faults.SiteLoad, vec.FromI8x16(a))
}

// Vld1qS16 loads eight consecutive int16.
func (u *Unit) Vld1qS16(p []int16) vec.V128 {
	u.rec(opVld1_16x16)
	p = skewed(u, faults.SiteLoad, p, 8)
	return fault(u, faults.SiteLoad, vec.Load16x8(p))
}

// Vld1S16 loads four consecutive int16 into a D register.
func (u *Unit) Vld1S16(p []int16) vec.V64 {
	u.rec(opVld1_16x8)
	p = skewed(u, faults.SiteLoad, p, 4)
	return fault(u, faults.SiteLoad, vec.Load16x4(p))
}

// Vld1qU16 loads eight consecutive uint16.
func (u *Unit) Vld1qU16(p []uint16) vec.V128 {
	u.rec(opVld1_16x16)
	p = skewed(u, faults.SiteLoad, p, 8)
	return fault(u, faults.SiteLoad, vec.Load16x8(p))
}

// Vld1qS32 loads four consecutive int32.
func (u *Unit) Vld1qS32(p []int32) vec.V128 {
	u.rec(opVld1_32x16)
	p = skewed(u, faults.SiteLoad, p, 4)
	var a [4]int32
	copy(a[:], p[:4])
	return fault(u, faults.SiteLoad, vec.FromI32x4(a))
}

// Vld1qU32 loads four consecutive uint32.
func (u *Unit) Vld1qU32(p []uint32) vec.V128 {
	u.rec(opVld1_32x16)
	p = skewed(u, faults.SiteLoad, p, 4)
	var a [4]uint32
	copy(a[:], p[:4])
	return fault(u, faults.SiteLoad, vec.FromU32x4(a))
}

// --- Data movement: stores ---

// Vst1qF32 stores four float32 (vst1.32).
func (u *Unit) Vst1qF32(p []float32, v vec.V128) {
	u.rec(opVst1_32)
	p = skewed(u, faults.SiteStore, p, 4)
	v = fault(u, faults.SiteStore, v)
	f := v.ToF32x4()
	copy(p[:4], f[:])
}

// Vst1qS16 stores eight int16 (vst1.16). This is the final instruction of
// the paper's hand-optimized convert loop.
func (u *Unit) Vst1qS16(p []int16, v vec.V128) {
	u.rec(opVst1_16x16)
	p = skewed(u, faults.SiteStore, p, 8)
	v = fault(u, faults.SiteStore, v)
	vec.Store16x8(p, v)
}

// Vst1S16 stores four int16 from a D register.
func (u *Unit) Vst1S16(p []int16, v vec.V64) {
	u.rec(opVst1_16x8)
	p = skewed(u, faults.SiteStore, p, 4)
	v = fault(u, faults.SiteStore, v)
	vec.Store16x4(p, v)
}

// Vst1qU8 stores sixteen uint8.
func (u *Unit) Vst1qU8(p []uint8, v vec.V128) {
	u.rec(opVst1_8x16)
	p = skewed(u, faults.SiteStore, p, 16)
	v = fault(u, faults.SiteStore, v)
	vec.StoreV128(p, v)
}

// Vst1U8 stores eight uint8 from a D register.
func (u *Unit) Vst1U8(p []uint8, v vec.V64) {
	u.rec(opVst1_8x8)
	p = skewed(u, faults.SiteStore, p, 8)
	v = fault(u, faults.SiteStore, v)
	vec.StoreV64(p, v)
}

// Vst1qU16 stores eight uint16.
func (u *Unit) Vst1qU16(p []uint16, v vec.V128) {
	u.rec(opVst1_16x16)
	p = skewed(u, faults.SiteStore, p, 8)
	v = fault(u, faults.SiteStore, v)
	vec.Store16x8(p, v)
}

// Vst1qS32 stores four int32.
func (u *Unit) Vst1qS32(p []int32, v vec.V128) {
	u.rec(opVst1_32)
	p = skewed(u, faults.SiteStore, p, 4)
	v = fault(u, faults.SiteStore, v)
	x := v.ToI32x4()
	copy(p[:4], x[:])
}

// Vst1qU32 stores four uint32.
func (u *Unit) Vst1qU32(p []uint32, v vec.V128) {
	u.rec(opVst1_32)
	p = skewed(u, faults.SiteStore, p, 4)
	v = fault(u, faults.SiteStore, v)
	x := v.ToU32x4()
	copy(p[:4], x[:])
}

// --- Duplication / set ---

// VdupqNF32 broadcasts a scalar float into all four lanes (vdup.32).
func (u *Unit) VdupqNF32(x float32) vec.V128 {
	u.rec(opVdup32)
	return vec.FromF32x4([4]float32{x, x, x, x})
}

// VdupqNS16 broadcasts a scalar int16 into all eight lanes.
func (u *Unit) VdupqNS16(x int16) vec.V128 {
	u.rec(opVdup16)
	return vec.Splat16(uint16(x))
}

// VdupqNU16 broadcasts a scalar uint16 into all eight lanes.
func (u *Unit) VdupqNU16(x uint16) vec.V128 {
	u.rec(opVdup16)
	return vec.Splat16(x)
}

// VdupqNU8 broadcasts a scalar uint8 into all sixteen lanes.
func (u *Unit) VdupqNU8(x uint8) vec.V128 {
	u.rec(opVdup8)
	return vec.Splat8(x)
}

// VdupqNS32 broadcasts a scalar int32 into all four lanes.
func (u *Unit) VdupqNS32(x int32) vec.V128 {
	u.rec(opVdup32)
	return vec.FromI32x4([4]int32{x, x, x, x})
}

// VdupqNU32 broadcasts a scalar uint32 into all four lanes.
func (u *Unit) VdupqNU32(x uint32) vec.V128 {
	u.rec(opVdup32)
	return vec.FromU32x4([4]uint32{x, x, x, x})
}

// VdupNU8 broadcasts a scalar uint8 into all eight D-register lanes.
func (u *Unit) VdupNU8(x uint8) vec.V64 {
	u.rec(opVdup8)
	return vec.Splat8(x).Low()
}

// VdupNS16 broadcasts a scalar int16 into all four D-register lanes.
func (u *Unit) VdupNS16(x int16) vec.V64 {
	u.rec(opVdup16)
	return vec.Splat16(uint16(x)).Low()
}

// VmovqNF32 is an alias of VdupqNF32 (the vmovq_n_f32 intrinsic).
func (u *Unit) VmovqNF32(x float32) vec.V128 { return u.VdupqNF32(x) }

// --- Register rearrangement ---

// VcombineS16 concatenates two D registers into one Q register
// (vcombine_s16). The paper observes gcc lowering this to a vorr/vmov.
func (u *Unit) VcombineS16(lo, hi vec.V64) vec.V128 {
	u.rec(opVorrMov) // lowered to a register move, per Section V
	return vec.Combine(lo, hi)
}

// VcombineU8 concatenates two D registers of bytes.
func (u *Unit) VcombineU8(lo, hi vec.V64) vec.V128 {
	u.rec(opVorrMov)
	return vec.Combine(lo, hi)
}

// VcombineU16 concatenates two D registers of uint16.
func (u *Unit) VcombineU16(lo, hi vec.V64) vec.V128 {
	u.rec(opVorrMov)
	return vec.Combine(lo, hi)
}

// VcombineF32 concatenates two D registers of float32.
func (u *Unit) VcombineF32(lo, hi vec.V64) vec.V128 {
	u.rec(opVorrMov)
	return vec.Combine(lo, hi)
}

// VgetLowS16 extracts the low D register of a Q register. This is free in
// hardware (D registers alias Q registers) so no instruction is recorded.
func (u *Unit) VgetLowS16(v vec.V128) vec.V64 { return v.Low() }

// VgetHighS16 extracts the high D register of a Q register (free alias).
func (u *Unit) VgetHighS16(v vec.V128) vec.V64 { return v.High() }

// VgetLowU8 extracts the low D register (free alias).
func (u *Unit) VgetLowU8(v vec.V128) vec.V64 { return v.Low() }

// VgetHighU8 extracts the high D register (free alias).
func (u *Unit) VgetHighU8(v vec.V128) vec.V64 { return v.High() }

// VgetLaneS16 extracts lane i to a core register (vmov.s16 rN, dM[i]).
func (u *Unit) VgetLaneS16(v vec.V64, lane int) int16 {
	u.rec(opVmovS16)
	return v.I16(lane)
}

// VgetqLaneS32 extracts lane i of a Q register to a core register.
func (u *Unit) VgetqLaneS32(v vec.V128, lane int) int32 {
	u.rec(opVmovS32)
	return v.I32(lane)
}

// VgetqLaneF32 extracts float lane i of a Q register.
func (u *Unit) VgetqLaneF32(v vec.V128, lane int) float32 {
	u.rec(opVmovF32)
	return v.F32(lane)
}

// VsetqLaneS16 inserts a scalar into lane i (vmov.16 dM[i], rN).
func (u *Unit) VsetqLaneS16(x int16, v vec.V128, lane int) vec.V128 {
	u.rec(opVmov16)
	v.SetI16(lane, x)
	return v
}

// VextU8 extracts a 16-byte window starting n bytes into the pair (a,b)
// (vext.8 qd, qa, qb, #n): lanes a[n..15], b[0..n-1].
func (u *Unit) VextU8(a, b vec.V128, n int) vec.V128 {
	u.rec(opVext8)
	var r vec.V128
	for i := 0; i < 16; i++ {
		if n+i < 16 {
			r.SetU8(i, a.U8(n+i))
		} else {
			r.SetU8(i, b.U8(n+i-16))
		}
	}
	return r
}

// VextS16 shifts the (a,b) pair by n 16-bit lanes (vext.16).
func (u *Unit) VextS16(a, b vec.V128, n int) vec.V128 {
	u.rec(opVext16)
	var r vec.V128
	for i := 0; i < 8; i++ {
		if n+i < 8 {
			r.SetI16(i, a.I16(n+i))
		} else {
			r.SetI16(i, b.I16(n+i-8))
		}
	}
	return r
}

// Vrev64U8 reverses bytes within each 64-bit doubleword (vrev64.8).
func (u *Unit) Vrev64U8(a vec.V128) vec.V128 {
	u.rec(opVrev64_8)
	var r vec.V128
	for d := 0; d < 2; d++ {
		for i := 0; i < 8; i++ {
			r.SetU8(d*8+i, a.U8(d*8+7-i))
		}
	}
	return r
}

// VtrnqS16 transposes pairs of 16-bit lanes between two registers
// (vtrn.16), the building block of NEON matrix transposes.
func (u *Unit) VtrnqS16(a, b vec.V128) (vec.V128, vec.V128) {
	u.rec(opVtrn16)
	var ra, rb vec.V128
	for i := 0; i < 8; i += 2 {
		ra.SetI16(i, a.I16(i))
		ra.SetI16(i+1, b.I16(i))
		rb.SetI16(i, a.I16(i+1))
		rb.SetI16(i+1, b.I16(i+1))
	}
	return ra, rb
}

// VzipqU8 interleaves the lanes of two byte registers (vzip.8).
func (u *Unit) VzipqU8(a, b vec.V128) (vec.V128, vec.V128) {
	u.rec(opVzip8)
	var lo, hi vec.V128
	for i := 0; i < 8; i++ {
		lo.SetU8(2*i, a.U8(i))
		lo.SetU8(2*i+1, b.U8(i))
		hi.SetU8(2*i, a.U8(8+i))
		hi.SetU8(2*i+1, b.U8(8+i))
	}
	return lo, hi
}

// VuzpqU8 deinterleaves lanes of two byte registers (vuzp.8).
func (u *Unit) VuzpqU8(a, b vec.V128) (vec.V128, vec.V128) {
	u.rec(opVuzp8)
	var ev, od vec.V128
	var all [32]uint8
	aa, bb := a.ToU8x16(), b.ToU8x16()
	copy(all[:16], aa[:])
	copy(all[16:], bb[:])
	for i := 0; i < 16; i++ {
		ev.SetU8(i, all[2*i])
		od.SetU8(i, all[2*i+1])
	}
	return ev, od
}

// VtblU8 performs a table lookup (vtbl.8): each index lane of idx selects a
// byte from table t; out-of-range indexes produce zero.
func (u *Unit) VtblU8(t vec.V64, idx vec.V64) vec.V64 {
	u.rec(opVtbl8)
	var r vec.V64
	for i := 0; i < 8; i++ {
		j := int(idx.U8(i))
		if j < 8 {
			r.SetU8(i, t.U8(j))
		}
	}
	return r
}

// VreinterpretqS16U8 reinterprets bits with no instruction cost, like the
// hardware register aliasing it models.
func (u *Unit) VreinterpretqS16U8(v vec.V128) vec.V128 { return v }

// VreinterpretqU8S16 reinterprets bits (free).
func (u *Unit) VreinterpretqU8S16(v vec.V128) vec.V128 { return v }

// VreinterpretqU16S16 reinterprets bits (free).
func (u *Unit) VreinterpretqU16S16(v vec.V128) vec.V128 { return v }

// VreinterpretqS16U16 reinterprets bits (free).
func (u *Unit) VreinterpretqS16U16(v vec.V128) vec.V128 { return v }
