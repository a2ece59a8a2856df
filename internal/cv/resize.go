package cv

import (
	"context"
	"fmt"

	"simdstudy/internal/image"
	"simdstudy/internal/vec"
)

// ResizeHalfCtx downsamples a U8 image by 2x in each dimension with a
// rounding 2x2 box filter:
//
//	dst[x,y] = (s[2x,2y] + s[2x+1,2y] + s[2x,2y+1] + s[2x+1,2y+1] + 2) >> 2
//
// Image resizing is another kernel from the paper's related work (7.6x
// NEON speedup on Tegra 3). The NEON path showcases the structured vld2
// load: one instruction splits each row into even and odd pixel columns,
// so 8 output pixels cost two loads, three widening adds and a rounding
// shift-narrow. Each output row reads exactly two source rows that no
// other output row touches, so the kernel bands over destination rows
// with no halo at all.
// Cancellation is row-granular.
func (o *Ops) ResizeHalfCtx(ctx context.Context, src, dst *image.Mat) error {
	return o.call(ctx, "ResizeHalf", dst.Height, func() error {
		if err := requireKind(src, image.U8, "ResizeHalf src"); err != nil {
			return err
		}
		if err := requireKind(dst, image.U8, "ResizeHalf dst"); err != nil {
			return err
		}
		if dst.Width != src.Width/2 || dst.Height != src.Height/2 {
			return fmt.Errorf("cv: ResizeHalf dst must be %dx%d, got %dx%d",
				src.Width/2, src.Height/2, dst.Width, dst.Height)
		}
		if dst.Width == 0 || dst.Height == 0 {
			return fmt.Errorf("cv: ResizeHalf source %dx%d too small", src.Width, src.Height)
		}
		return o.plane(gkResizeHalf, src, dst, resizeRun)
	})
}

func resizeRun(op *Ops, s, d *image.Mat) {
	switch op.path() {
	case ISANEON:
		op.resizeHalfNEON(s, d)
	case ISASSE2:
		op.resizeHalfSSE2(s, d)
	default:
		op.resizeHalfScalar(s, d)
	}
}

func resizePixel(pix []uint8, w, x, y int) uint8 {
	r0 := 2 * y * w
	r1 := r0 + w
	s := uint16(pix[r0+2*x]) + uint16(pix[r0+2*x+1]) + uint16(pix[r1+2*x]) + uint16(pix[r1+2*x+1])
	return uint8((s + 2) >> 2)
}

// resizeArgs bundles the downsample pass for the banded row bodies, with
// the SSE2 deinterleave constants hoisted once on the parent unit.
type resizeArgs struct {
	src, dst     []uint8
	sw, dw       int
	lowMask, two vec.V128
}

func (o *Ops) resizeHalfScalar(src, dst *image.Mat) {
	a := resizeArgs{src: src.U8Pix, dst: dst.U8Pix, sw: src.Width, dw: dst.Width}
	parRows(o, dst.Height, a, resizeScalarRow, nil)
}

func resizeScalarRow(b *Ops, a resizeArgs, y int) {
	for x := 0; x < a.dw; x++ {
		a.dst[y*a.dw+x] = resizePixel(a.src, a.sw, x, y)
	}
	if b.T != nil {
		px := uint64(a.dw)
		b.count(opLdrb4, 4*px)
		b.count(opAddShr, 4*px)
		b.count(opStrb, px)
		b.scalarOverhead(px)
	}
}

func (o *Ops) resizeHalfNEON(src, dst *image.Mat) {
	a := resizeArgs{src: src.U8Pix, dst: dst.U8Pix, sw: src.Width, dw: dst.Width}
	parRows(o, dst.Height, a, resizeNEONRow, resizeNEONRowLanes)
}

func resizeNEONRow(b *Ops, a resizeArgs, y int) {
	u := b.n
	row0 := a.src[2*y*a.sw:]
	row1 := a.src[(2*y+1)*a.sw:]
	out := a.dst[y*a.dw : (y+1)*a.dw]
	edge := 0
	x := 0
	for ; x+8 <= a.dw; x += 8 {
		// vld2 splits 16 source bytes into even/odd columns.
		p0 := u.Vld2U8(row0[2*x:])
		p1 := u.Vld2U8(row1[2*x:])
		acc := u.VaddlU8(p0[0], p0[1])
		acc = u.VaddwU8(acc, p1[0])
		acc = u.VaddwU8(acc, p1[1])
		u.Vst1U8(out[x:], u.VrshrnNU16(acc, 2))
		u.Overhead(2, 1, 0)
	}
	for ; x < a.dw; x++ {
		out[x] = resizePixel(a.src, a.sw, x, y)
		edge++
	}
	b.resizeTailCost(uint64(edge))
}

func (o *Ops) resizeTailCost(pixels uint64) {
	if o.T == nil || pixels == 0 {
		return
	}
	o.count(opResizeTail, 8*pixels)
	o.scalarOverhead(pixels)
}

func (o *Ops) resizeHalfSSE2(src, dst *image.Mat) {
	a := resizeArgs{src: src.U8Pix, dst: dst.U8Pix, sw: src.Width, dw: dst.Width}
	a.lowMask = o.s.Set1Epi16(0x00FF)
	a.two = o.s.Set1Epi16(2)
	parRows(o, dst.Height, a, resizeSSE2Row, resizeSSE2RowLanes)
}

func resizeSSE2Row(b *Ops, a resizeArgs, y int) {
	u := b.s
	row0 := a.src[2*y*a.sw:]
	row1 := a.src[(2*y+1)*a.sw:]
	out := a.dst[y*a.dw : (y+1)*a.dw]
	edge := 0
	x := 0
	for ; x+8 <= a.dw; x += 8 {
		// SSE2 has no deinterleaving load: split even/odd columns
		// with a mask and a 16-bit shift — two extra ops per load
		// that vld2 gets for free, the asymmetry behind NEON's edge
		// on this kernel.
		v0 := u.LoaduSi128U8(row0[2*x:])
		v1 := u.LoaduSi128U8(row1[2*x:])
		even0 := u.AndSi128(v0, a.lowMask)
		odd0 := u.SrliEpi16(v0, 8)
		even1 := u.AndSi128(v1, a.lowMask)
		odd1 := u.SrliEpi16(v1, 8)
		acc := u.AddEpi16(u.AddEpi16(even0, odd0), u.AddEpi16(even1, odd1))
		acc = u.SrliEpi16(u.AddEpi16(acc, a.two), 2)
		u.StorelEpi64U8(out[x:], u.PackusEpi16(acc, acc))
		u.Overhead(2, 1, 0)
	}
	for ; x < a.dw; x++ {
		out[x] = resizePixel(a.src, a.sw, x, y)
		edge++
	}
	b.resizeTailCost(uint64(edge))
}
