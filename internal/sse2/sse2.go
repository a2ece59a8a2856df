// Package sse2 is a bit-exact software emulation of the Intel SSE2 intrinsic
// functions used by the paper, with dynamic instruction accounting.
//
// Intrinsics are methods on a Unit. Names follow the Intel convention from
// the paper's Section II-C (_mm_[intrin_op]_[suffix]) with the _mm_ prefix
// dropped: _mm_loadu_ps becomes LoaduPs, _mm_packs_epi32 becomes PacksEpi32.
// Register values are vec.V128 (XMM). A Unit with a nil trace counter is a
// pure functional SIMD library.
package sse2

import (
	"simdstudy/internal/faults"
	"simdstudy/internal/obs"
	"simdstudy/internal/trace"
	"simdstudy/internal/vec"
)

// Unit is an emulated SSE2 execution unit. The zero value performs no
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

// Session opens an observability span named "sse2.<name>" covering a
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
		sp = parent.Child("sse2." + name)
	} else {
		sp = u.Obs.StartSpan("sse2." + name)
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

// Overhead records the loop/address bookkeeping instructions surrounding the
// intrinsic body in compiled x86 code (lea/add, cmp+jcc, mov).
func (u *Unit) Overhead(addrCalcs, branches, moves int) {
	u.recN(opLeaAdd, addrCalcs)
	u.recN(opCmpJcc, branches)
	u.recN(opMov, moves)
}

// --- Loads ---

// LoaduPs loads four unaligned float32 (_mm_loadu_ps / movups).
func (u *Unit) LoaduPs(p []float32) vec.V128 {
	u.rec(opMovupsLd)
	p = skewed(u, faults.SiteLoad, p, 4)
	return fault(u, faults.SiteLoad, vec.FromF32x4([4]float32{p[0], p[1], p[2], p[3]}))
}

// LoadPs loads four aligned float32 (_mm_load_ps / movaps).
func (u *Unit) LoadPs(p []float32) vec.V128 {
	u.rec(opMovaps)
	p = skewed(u, faults.SiteLoad, p, 4)
	return fault(u, faults.SiteLoad, vec.FromF32x4([4]float32{p[0], p[1], p[2], p[3]}))
}

// LoaduSi128 loads 16 unaligned bytes (_mm_loadu_si128 / movdqu).
func (u *Unit) LoaduSi128(p []byte) vec.V128 {
	u.rec(opMovdquLd)
	p = skewed(u, faults.SiteLoad, p, 16)
	return fault(u, faults.SiteLoad, vec.LoadV128(p))
}

// LoaduSi128U8 loads sixteen uint8 (typed convenience over movdqu).
func (u *Unit) LoaduSi128U8(p []uint8) vec.V128 {
	u.rec(opMovdquLd)
	p = skewed(u, faults.SiteLoad, p, 16)
	return fault(u, faults.SiteLoad, vec.LoadV128(p))
}

// LoaduSi128S16 loads eight int16 (typed convenience over movdqu).
func (u *Unit) LoaduSi128S16(p []int16) vec.V128 {
	u.rec(opMovdquLd)
	p = skewed(u, faults.SiteLoad, p, 8)
	return fault(u, faults.SiteLoad, vec.Load16x8(p))
}

// LoaduSi128U16 loads eight uint16 (typed convenience over movdqu).
func (u *Unit) LoaduSi128U16(p []uint16) vec.V128 {
	u.rec(opMovdquLd)
	p = skewed(u, faults.SiteLoad, p, 8)
	return fault(u, faults.SiteLoad, vec.Load16x8(p))
}

// LoaduSi128S32 loads four int32 (typed convenience over movdqu).
func (u *Unit) LoaduSi128S32(p []int32) vec.V128 {
	u.rec(opMovdquLd)
	p = skewed(u, faults.SiteLoad, p, 4)
	var a [4]int32
	copy(a[:], p[:4])
	return fault(u, faults.SiteLoad, vec.FromI32x4(a))
}

// LoaduPd loads two unaligned float64 (_mm_loadu_pd / movupd).
func (u *Unit) LoaduPd(p []float64) vec.V128 {
	u.rec(opMovupd)
	p = skewed(u, faults.SiteLoad, p, 2)
	return fault(u, faults.SiteLoad, vec.FromF64x2([2]float64{p[0], p[1]}))
}

// LoadlEpi64U8 loads eight bytes into the low qword, zeroing the high
// (_mm_loadl_epi64 / movq).
func (u *Unit) LoadlEpi64U8(p []uint8) vec.V128 {
	u.rec(opMovqLd)
	p = skewed(u, faults.SiteLoad, p, 8)
	return fault(u, faults.SiteLoad, vec.Combine(vec.LoadV64(p), vec.V64{}))
}

// LoadlEpi64S16 loads four int16 into the low qword (_mm_loadl_epi64).
func (u *Unit) LoadlEpi64S16(p []int16) vec.V128 {
	u.rec(opMovqLd)
	p = skewed(u, faults.SiteLoad, p, 4)
	return fault(u, faults.SiteLoad, vec.Combine(vec.Load16x4(p), vec.V64{}))
}

// LoadSs loads a single float32 into lane 0, zeroing the rest (movss).
func (u *Unit) LoadSs(p []float32) vec.V128 {
	u.rec(opMovss)
	p = skewed(u, faults.SiteLoad, p, 1)
	var v vec.V128
	v.SetF32(0, p[0])
	return fault(u, faults.SiteLoad, v)
}

// --- Stores ---

// StoreuPs stores four float32 (_mm_storeu_ps / movups).
func (u *Unit) StoreuPs(p []float32, v vec.V128) {
	u.rec(opMovupsSt)
	p = skewed(u, faults.SiteStore, p, 4)
	v = fault(u, faults.SiteStore, v)
	f := v.ToF32x4()
	copy(p[:4], f[:])
}

// StoreuSi128 stores 16 bytes (_mm_storeu_si128 / movdqu).
func (u *Unit) StoreuSi128(p []byte, v vec.V128) {
	u.rec(opMovdquSt)
	p = skewed(u, faults.SiteStore, p, 16)
	v = fault(u, faults.SiteStore, v)
	vec.StoreV128(p, v)
}

// StoreuSi128S16 stores eight int16. This is the final instruction of the
// paper's SSE2 convert loop.
func (u *Unit) StoreuSi128S16(p []int16, v vec.V128) {
	u.rec(opMovdquSt)
	p = skewed(u, faults.SiteStore, p, 8)
	v = fault(u, faults.SiteStore, v)
	vec.Store16x8(p, v)
}

// StoreuSi128U8 stores sixteen uint8.
func (u *Unit) StoreuSi128U8(p []uint8, v vec.V128) {
	u.rec(opMovdquSt)
	p = skewed(u, faults.SiteStore, p, 16)
	v = fault(u, faults.SiteStore, v)
	vec.StoreV128(p, v)
}

// StoreuSi128U16 stores eight uint16.
func (u *Unit) StoreuSi128U16(p []uint16, v vec.V128) {
	u.rec(opMovdquSt)
	p = skewed(u, faults.SiteStore, p, 8)
	v = fault(u, faults.SiteStore, v)
	vec.Store16x8(p, v)
}

// StoreuSi128S32 stores four int32.
func (u *Unit) StoreuSi128S32(p []int32, v vec.V128) {
	u.rec(opMovdquSt)
	p = skewed(u, faults.SiteStore, p, 4)
	v = fault(u, faults.SiteStore, v)
	x := v.ToI32x4()
	copy(p[:4], x[:])
}

// StorelEpi64U8 stores the low eight bytes (_mm_storel_epi64 / movq).
func (u *Unit) StorelEpi64U8(p []uint8, v vec.V128) {
	u.rec(opMovqSt)
	p = skewed(u, faults.SiteStore, p, 8)
	v = fault(u, faults.SiteStore, v)
	vec.StoreV64(p, v.Low())
}

// StorelEpi64S16 stores the low four int16 (_mm_storel_epi64 / movq).
func (u *Unit) StorelEpi64S16(p []int16, v vec.V128) {
	u.rec(opMovqSt)
	p = skewed(u, faults.SiteStore, p, 4)
	v = fault(u, faults.SiteStore, v)
	vec.Store16x4(p, v.Low())
}

// --- Set / broadcast ---

// Set1Ps broadcasts a float32 to all four lanes (_mm_set1_ps).
func (u *Unit) Set1Ps(x float32) vec.V128 {
	u.rec(opShufpsSet1)
	return vec.FromF32x4([4]float32{x, x, x, x})
}

// Set1Epi8 broadcasts a byte to all sixteen lanes (_mm_set1_epi8).
func (u *Unit) Set1Epi8(x int8) vec.V128 {
	u.rec(opPshufdSet1)
	return vec.Splat8(uint8(x))
}

// Set1Epu8 broadcasts an unsigned byte to all sixteen lanes.
func (u *Unit) Set1Epu8(x uint8) vec.V128 {
	u.rec(opPshufdSet1)
	return vec.Splat8(x)
}

// Set1Epi16 broadcasts an int16 to all eight lanes (_mm_set1_epi16).
func (u *Unit) Set1Epi16(x int16) vec.V128 {
	u.rec(opPshufdSet1)
	return vec.Splat16(uint16(x))
}

// Set1Epi32 broadcasts an int32 to all four lanes (_mm_set1_epi32).
func (u *Unit) Set1Epi32(x int32) vec.V128 {
	u.rec(opPshufdSet1)
	return vec.FromI32x4([4]int32{x, x, x, x})
}

// SetSd places a float64 in lane 0 (_mm_set_sd), the cvRound idiom's first
// instruction.
func (u *Unit) SetSd(x float64) vec.V128 {
	u.rec(opMovsd)
	var v vec.V128
	v.SetF64(0, x)
	return v
}

// SetrEpi16 sets eight int16 lanes in order (_mm_setr_epi16).
func (u *Unit) SetrEpi16(a, b, c, d, e, f, g, h int16) vec.V128 {
	u.rec(opPinsrwSetr)
	return vec.FromI16x8([8]int16{a, b, c, d, e, f, g, h})
}

// SetzeroSi128 returns all zeroes (_mm_setzero_si128 / pxor).
func (u *Unit) SetzeroSi128() vec.V128 {
	u.rec(opPxorZero)
	return vec.Zero()
}

// SetzeroPs returns all zeroes (_mm_setzero_ps / xorps).
func (u *Unit) SetzeroPs() vec.V128 {
	u.rec(opXorpsZero)
	return vec.Zero()
}

// --- Scalar extraction ---

// CvtsdSi32 converts the low double to int32 with round-to-even
// (_mm_cvtsd_si32 / cvtsd2si). Together with SetSd this is OpenCV's
// SSE2 cvRound.
func (u *Unit) CvtsdSi32(v vec.V128) int32 {
	u.rec(opCvtsd2si)
	return roundToEvenSat(v.F64(0))
}

// CvtsiSi128 moves an int32 into lane 0, zeroing the rest (_mm_cvtsi32_si128).
func (u *Unit) CvtsiSi128(x int32) vec.V128 {
	u.rec(opMovd)
	var v vec.V128
	v.SetI32(0, x)
	return v
}

// Cvtsi128Si32 extracts lane 0 as int32 (_mm_cvtsi128_si32 / movd).
func (u *Unit) Cvtsi128Si32(v vec.V128) int32 {
	u.rec(opMovd)
	return v.I32(0)
}

// ExtractEpi16 extracts a 16-bit lane as a zero-extended int (pextrw).
func (u *Unit) ExtractEpi16(v vec.V128, lane int) int {
	u.rec(opPextrw)
	return int(v.U16(lane))
}

// MovemaskEpi8 gathers the top bit of each byte lane (_mm_movemask_epi8).
func (u *Unit) MovemaskEpi8(v vec.V128) int {
	u.rec(opPmovmskb)
	m := 0
	for i, x := range v.ToU8x16() {
		m |= int(x>>7) << i
	}
	return m
}

// MovemaskPs gathers the sign bit of each float lane (_mm_movemask_ps).
func (u *Unit) MovemaskPs(v vec.V128) int {
	u.rec(opMovmskps)
	m := 0
	for i := 0; i < 4; i++ {
		if v.U32(i)&0x80000000 != 0 {
			m |= 1 << i
		}
	}
	return m
}
