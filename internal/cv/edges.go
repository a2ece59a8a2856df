package cv

import (
	"context"

	"simdstudy/internal/image"
	"simdstudy/internal/par"
	"simdstudy/internal/vec"
)

// DetectEdges is the paper's benchmark 5: apply the 2-D Sobel operator
// (horizontal and vertical passes), combine gradient magnitudes with the
// saturating L1 norm |gx|+|gy|, then binarize — pixels whose gradient
// intensity exceeds thresh become 255, the rest 0.
func (o *Ops) DetectEdges(src, dst *image.Mat, thresh int16) error {
	return o.DetectEdgesCtx(nil, src, dst, thresh)
}

// DetectEdgesCtx is DetectEdges with row-granular cancellation through the
// nested Sobel passes (2 filters x 2 passes each).
func (o *Ops) DetectEdgesCtx(ctx context.Context, src, dst *image.Mat, thresh int16) error {
	return o.call(ctx, "DetectEdges", 4*dst.Height, func() error {
		if err := requireKind(src, image.U8, "DetectEdges src"); err != nil {
			return err
		}
		if err := requireKind(dst, image.U8, "DetectEdges dst"); err != nil {
			return err
		}
		if err := sameShape(src, dst); err != nil {
			return err
		}
		run := func() error {
			if o.fuse.Enabled {
				return o.edgesFused(src, dst, thresh)
			}
			return o.edgesStaged(src, dst, thresh)
		}
		if !o.UseOptimized() {
			return run()
		}
		// One referee covers the whole pipeline, staged or fused: it re-runs
		// the staged scalar pipeline, and the nested SobelFilter calls see
		// inGuard and skip their own referees.
		return o.guardedRun(gkEdges, src.Height, dst, run,
			func(ref *Ops, r0, r1 int, d *image.Mat) error {
				return ref.edgesStaged(src.Rows(r0, r1), d, thresh)
			})
	})
}

// edgesStaged is the unfused pipeline: full gradient planes, then the
// combine pass over the whole plane.
func (o *Ops) edgesStaged(src, dst *image.Mat, thresh int16) error {
	gx := o.sobelPlane(src.Width, src.Height)
	defer par.PutMat(gx)
	gy := o.sobelPlane(src.Width, src.Height)
	defer par.PutMat(gy)
	if err := o.SobelFilter(src, gx, 1, 0); err != nil {
		return err
	}
	if err := o.SobelFilter(src, gy, 0, 1); err != nil {
		return err
	}
	switch o.path() {
	case ISANEON:
		o.magThreshNEON(gx, gy, dst, thresh)
	case ISASSE2:
		o.magThreshSSE2(gx, gy, dst, thresh)
	default:
		o.magThreshScalar(gx, gy, dst, thresh)
	}
	return nil
}

// magThreshPixel is the scalar combine: saturating |gx|+|gy| compared with
// the threshold, 255 above it and 0 elsewhere. The difference is negative
// exactly above the threshold, and its sign bit becomes the mask without a
// branch on the pixel.
func magThreshPixel(gx, gy, thresh int16) uint8 {
	return uint8((int32(thresh) - mag16(gx, gy)) >> 31)
}

// magThreshArgs bundles the combine stage for the banded chunk bodies, with
// the threshold vector hoisted once on the parent unit.
type magThreshArgs struct {
	gx, gy  []int16
	d       []uint8
	thresh  int16
	vthresh vec.V128
}

func (o *Ops) magThreshScalar(gx, gy, dst *image.Mat, thresh int16) {
	a := magThreshArgs{gx: gx.S16Pix, gy: gy.S16Pix, d: dst.U8Pix, thresh: thresh}
	parFlat(o, dst.Pixels(), a, magThreshScalarChunk, nil)
}

func magThreshScalarChunk(b *Ops, a magThreshArgs, lo, hi int) {
	d := a.d[lo:hi]
	gx, gy := a.gx[lo:hi][:len(d)], a.gy[lo:hi][:len(d)]
	for i := range d {
		d[i] = magThreshPixel(gx[i], gy[i], a.thresh)
	}
	if b.T != nil {
		n := uint64(hi - lo)
		b.count(opLdrGxGy, 2*n)
		b.count(opAbsAddCmp, 4*n)
		b.count(opStrb, n)
		b.scalarOverhead(n)
	}
}

// magThreshNEON combines 8 pixels per iteration: two saturating absolutes,
// a saturating add, a compare and a narrowing store of the mask.
func (o *Ops) magThreshNEON(gx, gy, dst *image.Mat, thresh int16) {
	defer o.n.Session("magthresh", o.curSpan()).End()
	a := magThreshArgs{gx: gx.S16Pix, gy: gy.S16Pix, d: dst.U8Pix, thresh: thresh}
	a.vthresh = o.n.VdupqNS16(thresh)
	parFlat(o, dst.Pixels(), a, magThreshNEONChunk, magThreshNEONChunkLanes)
}

func magThreshNEONChunk(b *Ops, a magThreshArgs, lo, hi int) {
	u := b.n
	i := lo
	for ; i+8 <= hi; i += 8 {
		ax := u.VqabsqS16(u.Vld1qS16(a.gx[i:]))
		ay := u.VqabsqS16(u.Vld1qS16(a.gy[i:]))
		m := u.VqaddqS16(ax, ay)
		mask := u.VcgtqS16(m, a.vthresh) // 0xFFFF where edge
		u.Vst1U8(a.d[i:], u.VmovnU16(u.VreinterpretqU16S16(mask)))
		u.Overhead(3, 1, 0)
	}
	for ; i < hi; i++ {
		a.d[i] = magThreshPixel(a.gx[i], a.gy[i], a.thresh)
		if b.T != nil {
			b.count(opMagTail, 5)
			b.scalarOverhead(1)
		}
	}
}

// magThreshSSE2 combines 8 pixels per iteration. SSE2 has no packed
// absolute value (pabsw is SSSE3), so |x| is computed with the classic
// three-instruction sign-mask idiom — an asymmetry versus NEON's single
// vqabs that shows up in the instruction counts.
func (o *Ops) magThreshSSE2(gx, gy, dst *image.Mat, thresh int16) {
	defer o.s.Session("magthresh", o.curSpan()).End()
	a := magThreshArgs{gx: gx.S16Pix, gy: gy.S16Pix, d: dst.U8Pix, thresh: thresh}
	a.vthresh = o.s.Set1Epi16(thresh)
	parFlat(o, dst.Pixels(), a, magThreshSSE2Chunk, magThreshSSE2ChunkLanes)
}

func magThreshSSE2Chunk(b *Ops, a magThreshArgs, lo, hi int) {
	u := b.s
	abs16 := func(v vec.V128) vec.V128 {
		sign := u.SraiEpi16(v, 15)
		return u.SubsEpi16(u.XorSi128(v, sign), sign)
	}
	i := lo
	for ; i+8 <= hi; i += 8 {
		ax := abs16(u.LoaduSi128S16(a.gx[i:]))
		ay := abs16(u.LoaduSi128S16(a.gy[i:]))
		m := u.AddsEpi16(ax, ay)
		mask := u.CmpgtEpi16(m, a.vthresh)
		packed := u.PacksEpi16(mask, mask) // 0xFFFF -> 0xFF lanes
		u.StorelEpi64U8(a.d[i:], packed)
		u.Overhead(3, 1, 0)
	}
	for ; i < hi; i++ {
		a.d[i] = magThreshPixel(a.gx[i], a.gy[i], a.thresh)
		if b.T != nil {
			b.count(opMagTail, 5)
			b.scalarOverhead(1)
		}
	}
}

// GradientMagnitude exposes the |gx|+|gy| combine on its own, so the
// internal/kernels tests can check the IR magnitude loop against it.
func (o *Ops) GradientMagnitude(gx, gy, dst *image.Mat) error {
	return o.call(nil, "GradientMagnitude", dst.Height, func() error {
		if err := requireKind(gx, image.S16, "GradientMagnitude gx"); err != nil {
			return err
		}
		if err := requireKind(gy, image.S16, "GradientMagnitude gy"); err != nil {
			return err
		}
		if err := requireKind(dst, image.S16, "GradientMagnitude dst"); err != nil {
			return err
		}
		if err := sameShape(gx, dst); err != nil {
			return err
		}
		if err := sameShape(gy, dst); err != nil {
			return err
		}
		parFlat(o, dst.Pixels(), cannyMagArgs{gx.S16Pix, gy.S16Pix, dst.S16Pix}, cannyMagChunk, nil)
		return nil
	})
}
