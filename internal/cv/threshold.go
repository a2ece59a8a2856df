package cv

import (
	"context"
	"fmt"

	"simdstudy/internal/image"
	"simdstudy/internal/vec"
)

// ThreshType selects the thresholding rule, mirroring OpenCV's THRESH_*
// constants.
type ThreshType int

// Threshold types. The paper's benchmark 2 follows its Algorithm 1:
// "if pixel >= threshold then pixel <- threshold", which is ThreshTrunc.
const (
	ThreshBinary    ThreshType = iota // dst = src > thresh ? maxval : 0
	ThreshBinaryInv                   // dst = src > thresh ? 0 : maxval
	ThreshTrunc                       // dst = min(src, thresh)
	ThreshToZero                      // dst = src > thresh ? src : 0
	ThreshToZeroInv                   // dst = src > thresh ? 0 : src
)

// String names the threshold type.
func (t ThreshType) String() string {
	switch t {
	case ThreshBinary:
		return "binary"
	case ThreshBinaryInv:
		return "binary_inv"
	case ThreshTrunc:
		return "trunc"
	case ThreshToZero:
		return "tozero"
	case ThreshToZeroInv:
		return "tozero_inv"
	}
	return fmt.Sprintf("thresh(%d)", int(t))
}

// Threshold applies an element-wise threshold to a U8 image, the paper's
// benchmark 2 (cv::threshold on 8-bit images).
func (o *Ops) Threshold(src, dst *image.Mat, thresh, maxval uint8, typ ThreshType) error {
	return o.ThresholdCtx(nil, src, dst, thresh, maxval, typ)
}

// ThresholdCtx is Threshold with deadline/cancellation checking at entry
// and guard phase boundaries.
func (o *Ops) ThresholdCtx(ctx context.Context, src, dst *image.Mat, thresh, maxval uint8, typ ThreshType) error {
	return o.call(ctx, "Threshold", dst.Height, func() error {
		if err := requireKind(src, image.U8, "Threshold src"); err != nil {
			return err
		}
		if err := requireKind(dst, image.U8, "Threshold dst"); err != nil {
			return err
		}
		if err := sameShape(src, dst); err != nil {
			return err
		}
		if typ < ThreshBinary || typ > ThreshToZeroInv {
			return fmt.Errorf("cv: unknown threshold type %d", int(typ))
		}
		return o.plane(gkThreshold, src, dst, func(op *Ops, s, d *image.Mat) {
			switch op.path() {
			case ISANEON:
				op.thresholdNEON(s, d, thresh, maxval, typ)
			case ISASSE2:
				op.thresholdSSE2(s, d, thresh, maxval, typ)
			default:
				op.thresholdScalar(s, d, thresh, maxval, typ)
			}
		})
	})
}

func thresholdPixel(v, thresh, maxval uint8, typ ThreshType) uint8 {
	switch typ {
	case ThreshBinary:
		if v > thresh {
			return maxval
		}
		return 0
	case ThreshBinaryInv:
		if v > thresh {
			return 0
		}
		return maxval
	case ThreshTrunc:
		if v > thresh {
			return thresh
		}
		return v
	case ThreshToZero:
		if v > thresh {
			return v
		}
		return 0
	default: // ThreshToZeroInv
		if v > thresh {
			return 0
		}
		return v
	}
}

// threshArgs bundles one threshold pass for the banded chunk bodies; the
// vector constants are hoisted (and their setup instructions recorded) once
// on the parent Ops, then used by every band as plain register values —
// exactly how the compiled loop keeps them live across iterations.
type threshArgs struct {
	s, d           []uint8
	thresh, maxval uint8
	typ            ThreshType
	vthresh, vmax  vec.V128
	bias, vbiased  vec.V128 // SSE2 signed-compare bias trick
}

func (o *Ops) thresholdScalar(src, dst *image.Mat, thresh, maxval uint8, typ ThreshType) {
	a := threshArgs{s: src.U8Pix, d: dst.U8Pix, thresh: thresh, maxval: maxval, typ: typ}
	parFlat(o, len(src.U8Pix), a, threshScalarChunk, nil)
}

func threshScalarChunk(b *Ops, a threshArgs, lo, hi int) {
	s, d := a.s, a.d
	for i := lo; i < hi; i++ {
		d[i] = thresholdPixel(s[i], a.thresh, a.maxval, a.typ)
	}
	if b.T != nil {
		// Per pixel: byte load, compare+conditional select (branchless at
		// -O3), byte store.
		n := uint64(hi - lo)
		b.count(opLdrb, n)
		b.count(opCmpSel, 2*n)
		b.count(opStrb, n)
		b.scalarOverhead(n)
	}
}

// thresholdNEON processes 16 pixels per iteration. Truncation is a single
// vmin.u8; the masked variants compare and bit-select.
func (o *Ops) thresholdNEON(src, dst *image.Mat, thresh, maxval uint8, typ ThreshType) {
	defer o.n.Session("threshold", o.curSpan()).End()
	a := threshArgs{s: src.U8Pix, d: dst.U8Pix, thresh: thresh, maxval: maxval, typ: typ}
	a.vthresh = o.n.VdupqNU8(thresh)
	if typ == ThreshBinary || typ == ThreshBinaryInv {
		a.vmax = o.n.VdupqNU8(maxval)
	}
	parFlat(o, len(src.U8Pix), a, threshNEONChunk, threshNEONChunkLanes)
}

func threshNEONChunk(b *Ops, a threshArgs, lo, hi int) {
	s, d := a.s, a.d
	u := b.n
	vthresh, vmax := a.vthresh, a.vmax
	x := lo
	for ; x <= hi-16; x += 16 {
		v := u.Vld1qU8(s[x:])
		var r vec.V128
		switch a.typ {
		case ThreshTrunc:
			r = u.VminqU8(v, vthresh)
		case ThreshBinary:
			mask := u.VcgtqU8(v, vthresh)
			r = u.VandqU8(mask, vmax)
		case ThreshBinaryInv:
			mask := u.VcgtqU8(v, vthresh)
			r = u.VbicqU8(vmax, mask)
		case ThreshToZero:
			mask := u.VcgtqU8(v, vthresh)
			r = u.VandqU8(mask, v)
		default: // ThreshToZeroInv
			mask := u.VcgtqU8(v, vthresh)
			r = u.VbicqU8(v, mask)
		}
		u.Vst1qU8(d[x:], r)
		u.Overhead(2, 1, 0)
	}
	for ; x < hi; x++ {
		d[x] = thresholdPixel(s[x], a.thresh, a.maxval, a.typ)
		if b.T != nil {
			b.count(opLdrbCmpStrbTail, 3)
			b.scalarOverhead(1)
		}
	}
}

// thresholdSSE2 processes 16 pixels per iteration. SSE2 lacks an unsigned
// byte compare, so the masked variants bias both operands by 0x80 and use
// the signed pcmpgtb — two extra pxor instructions per loop that NEON does
// not pay, one of the micro-architectural asymmetries the paper discusses.
func (o *Ops) thresholdSSE2(src, dst *image.Mat, thresh, maxval uint8, typ ThreshType) {
	defer o.s.Session("threshold", o.curSpan()).End()
	a := threshArgs{s: src.U8Pix, d: dst.U8Pix, thresh: thresh, maxval: maxval, typ: typ}
	a.vthresh = o.s.Set1Epu8(thresh)
	a.bias = o.s.Set1Epu8(0x80)
	a.vbiased = o.s.XorSi128(a.vthresh, a.bias)
	if typ == ThreshBinary || typ == ThreshBinaryInv {
		a.vmax = o.s.Set1Epu8(maxval)
	}
	parFlat(o, len(src.U8Pix), a, threshSSE2Chunk, threshSSE2ChunkLanes)
}

func threshSSE2Chunk(b *Ops, a threshArgs, lo, hi int) {
	s, d := a.s, a.d
	u := b.s
	vthresh, vmax, bias, vthreshBiased := a.vthresh, a.vmax, a.bias, a.vbiased
	x := lo
	for ; x <= hi-16; x += 16 {
		v := u.LoaduSi128U8(s[x:])
		var r vec.V128
		switch a.typ {
		case ThreshTrunc:
			r = u.MinEpu8(v, vthresh)
		case ThreshBinary:
			mask := u.CmpgtEpi8(u.XorSi128(v, bias), vthreshBiased)
			r = u.AndSi128(mask, vmax)
		case ThreshBinaryInv:
			mask := u.CmpgtEpi8(u.XorSi128(v, bias), vthreshBiased)
			r = u.AndnotSi128(mask, vmax)
		case ThreshToZero:
			mask := u.CmpgtEpi8(u.XorSi128(v, bias), vthreshBiased)
			r = u.AndSi128(mask, v)
		default: // ThreshToZeroInv
			mask := u.CmpgtEpi8(u.XorSi128(v, bias), vthreshBiased)
			r = u.AndnotSi128(mask, v)
		}
		u.StoreuSi128U8(d[x:], r)
		u.Overhead(2, 1, 0)
	}
	for ; x < hi; x++ {
		d[x] = thresholdPixel(s[x], a.thresh, a.maxval, a.typ)
		if b.T != nil {
			b.count(opMovCmpMovTail, 3)
			b.scalarOverhead(1)
		}
	}
}
