package cv

import (
	"context"

	"simdstudy/internal/image"
	"simdstudy/internal/sat"
)

// ConvertF32ToS16 is the paper's first benchmark: OpenCV's cvt_32f16s,
// converting float pixels to signed shorts with saturation
// (saturate_cast<short>(float)).
//
// Rounding follows the platform conventions of OpenCV 2.4:
//
//   - the SSE2 scalar and vector paths round to nearest-even (cvtsd2si /
//     cvtps2dq under default MXCSR), so scalar and hand-SIMD agree exactly;
//   - the ARM scalar path uses the (int)(v +- 0.5) fallback (half away from
//     zero), while the hand NEON path uses vcvt.s32.f32 which truncates —
//     a genuine, documented divergence of the real NEON port that shows up
//     as off-by-one results on fractional pixels.
func (o *Ops) ConvertF32ToS16(src, dst *image.Mat) error { return o.ConvertF32ToS16Ctx(nil, src, dst) }

// ConvertF32ToS16Ctx is ConvertF32ToS16 with deadline/cancellation checking
// at entry and guard phase boundaries.
func (o *Ops) ConvertF32ToS16Ctx(ctx context.Context, src, dst *image.Mat) error {
	return o.call(ctx, "ConvertF32ToS16", dst.Height, func() error {
		if err := requireKind(src, image.F32, "ConvertF32ToS16 src"); err != nil {
			return err
		}
		if err := requireKind(dst, image.S16, "ConvertF32ToS16 dst"); err != nil {
			return err
		}
		if err := sameShape(src, dst); err != nil {
			return err
		}
		return o.plane(gkConvert, src, dst, convertRun)
	})
}

func convertRun(op *Ops, s, d *image.Mat) {
	switch op.path() {
	case ISANEON:
		op.convertNEON(s, d)
	case ISASSE2:
		op.convertSSE2(s, d)
	default:
		op.convertScalar(s, d)
	}
}

// convArgs bundles the convert pass planes for the banded chunk bodies.
// Bodies are package-level functions so dispatching them allocates nothing.
type convArgs struct {
	s []float32
	d []int16
}

// convertScalar is the unoptimized OpenCV loop:
//
//	for (; x < size.width; x++) dst[x] = saturate_cast<short>(src[x]);
func (o *Ops) convertScalar(src, dst *image.Mat) {
	parFlat(o, len(src.F32Pix), convArgs{src.F32Pix, dst.S16Pix}, convScalarChunk, nil)
}

func convScalarChunk(b *Ops, a convArgs, lo, hi int) {
	s, d := a.s, a.d
	for i := lo; i < hi; i++ {
		d[i] = sat.NarrowInt32ToInt16(b.cvRound(s[i]))
	}
	if b.T != nil {
		// Per-pixel cost of the scalar loop as compiled at -O3 without
		// vectorization: load, round+convert (a scalar FP op plus a
		// conversion; on ARM the cvRound inlines to VFP ops), two-branch
		// clamp folded to ALU ops, store.
		n := uint64(hi - lo)
		b.count(opLdrF32, n)
		b.count(opRound, n)
		b.count(opCvtF2i, n)
		b.count(opClamp, 2*n)
		b.count(opStrhS16, n)
		b.scalarOverhead(n)
	}
}

// cvRound mirrors OpenCV's cvRound for the configured platform family.
func (o *Ops) cvRound(v float32) int32 {
	if o.isa == ISASSE2 {
		return sat.RoundHalfToEvenIndefinite(float64(v))
	}
	return sat.RoundHalfAwayFromZero(float64(v))
}

// convertNEON is the paper's hand-optimized NEON loop, transcribed from its
// Section III-A listing: 8 pixels per iteration, 8 NEON instructions plus 6
// bookkeeping instructions.
func (o *Ops) convertNEON(src, dst *image.Mat) {
	defer o.n.Session("convert", o.curSpan()).End()
	parFlat(o, len(src.F32Pix), convArgs{src.F32Pix, dst.S16Pix}, convNEONChunk, convNEONChunkLanes)
}

func convNEONChunk(b *Ops, a convArgs, lo, hi int) {
	s, d := a.s, a.d
	u := b.n
	x := lo
	for ; x <= hi-8; x += 8 {
		src128 := u.Vld1qF32(s[x:])
		srcInt128 := u.VcvtqS32F32(src128)
		src0Int64 := u.VqmovnS32(srcInt128)
		src128 = u.Vld1qF32(s[x+4:])
		srcInt128 = u.VcvtqS32F32(src128)
		src1Int64 := u.VqmovnS32(srcInt128)
		resInt128 := u.VcombineS16(src0Int64, src1Int64)
		u.Vst1qS16(d[x:], resInt128)
		// Section V counts 6 non-SIMD instructions per iteration: two
		// address adds, a register move, a compare and branch, and the
		// base-pointer update.
		u.Overhead(3, 1, 2)
	}
	// Scalar epilogue for the remainder (final chunk only: chunk bounds are
	// vector-width aligned), truncating like vcvt so the whole image is
	// consistent with the vector path.
	for ; x < hi; x++ {
		d[x] = sat.NarrowInt32ToInt16(sat.Float32ToInt32Truncate(s[x]))
		if b.T != nil {
			b.count(opVldrVcvtStrhTail, 1)
			b.scalarOverhead(1)
		}
	}
}

// convertSSE2 is the paper's hand-optimized SSE2 loop, transcribed from its
// Section III-A listing: 8 pixels per iteration, 6 SSE2 instructions.
func (o *Ops) convertSSE2(src, dst *image.Mat) {
	defer o.s.Session("convert", o.curSpan()).End()
	parFlat(o, len(src.F32Pix), convArgs{src.F32Pix, dst.S16Pix}, convSSE2Chunk, convSSE2ChunkLanes)
}

func convSSE2Chunk(b *Ops, a convArgs, lo, hi int) {
	s, d := a.s, a.d
	u := b.s
	x := lo
	for ; x <= hi-8; x += 8 {
		src128 := u.LoaduPs(s[x:])
		srcInt128 := u.CvtpsEpi32(src128)
		src128 = u.LoaduPs(s[x+4:])
		src1Int128 := u.CvtpsEpi32(src128)
		src1Int128 = u.PacksEpi32(srcInt128, src1Int128)
		u.StoreuSi128S16(d[x:], src1Int128)
		u.Overhead(3, 1, 2)
	}
	for ; x < hi; x++ {
		d[x] = sat.NarrowInt32ToInt16(sat.RoundHalfToEvenIndefinite(float64(s[x])))
		if b.T != nil {
			b.count(opCvtss2siClampTail, 1)
			b.scalarOverhead(1)
		}
	}
}
