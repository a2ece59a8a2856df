package cv

import (
	"fmt"

	"simdstudy/internal/image"
	"simdstudy/internal/vec"
)

// BT.601 luma weights in 8.8 fixed point (sum exactly 256), the classic
// coefficients of ARM's own NEON RGB-to-gray example and of OpenCV's
// 8-bit cvtColor path:
//
//	gray = (77*R + 150*G + 29*B + 128) >> 8
const (
	grayR     = 77
	grayG     = 150
	grayB     = 29
	grayShift = 8
)

// RGBToGray converts an interleaved RGB image to 8-bit grayscale — the
// color-conversion workload the paper's related work reports a 9.5x NEON
// speedup for (Pulli et al., the Tegra OpenCV study).
//
// The hand path exists only for NEON: its structured vld3.8 load
// deinterleaves the color planes in one instruction, which SSE2 has no
// counterpart for — OpenCV 2.4 shipped no SSE2 cvtColor(RGB2GRAY) kernel
// either, so on Intel the operation runs scalar, faithfully.
func (o *Ops) RGBToGray(src *image.RGB, dst *image.Mat) error {
	return o.call(nil, "RGBToGray", dst.Height, func() error {
		if err := requireKind(dst, image.U8, "RGBToGray dst"); err != nil {
			return err
		}
		if src.Width != dst.Width || src.Height != dst.Height {
			return fmt.Errorf("cv: shape mismatch %dx%d vs %dx%d",
				src.Width, src.Height, dst.Width, dst.Height)
		}
		if o.path() != ISANEON {
			o.rgbToGrayScalar(src, dst)
			return nil
		}
		return o.guardedRun(gkRGBToGray, src.Height, dst,
			func() error { o.rgbToGrayNEON(src, dst); return nil },
			func(ref *Ops, r0, r1 int, d *image.Mat) error { ref.rgbToGrayScalar(src.Rows(r0, r1), d); return nil })
	})
}

func grayPixel(r, g, b uint8) uint8 {
	return uint8((uint32(r)*grayR + uint32(g)*grayG + uint32(b)*grayB + 1<<(grayShift-1)) >> grayShift)
}

// grayArgs bundles the color-conversion planes for the banded chunk bodies,
// with the NEON luma weights hoisted once on the parent unit.
type grayArgs struct {
	rgb        []uint8
	d          []uint8
	wr, wg, wb vec.V64
}

func (o *Ops) rgbToGrayScalar(src *image.RGB, dst *image.Mat) {
	a := grayArgs{rgb: src.Pix, d: dst.U8Pix}
	parFlat(o, dst.Pixels(), a, grayScalarChunk, nil)
}

func grayScalarChunk(b *Ops, a grayArgs, lo, hi int) {
	for i := lo; i < hi; i++ {
		a.d[i] = grayPixel(a.rgb[3*i], a.rgb[3*i+1], a.rgb[3*i+2])
	}
	if b.T != nil {
		// Per pixel: three byte loads, three multiplies, two adds, a
		// shift-round and a store.
		n := uint64(hi - lo)
		b.count(opLdrbRgb, 3*n)
		b.count(opMulLuma, 3*n)
		b.count(opAddShr, 3*n)
		b.count(opStrb, n)
		b.scalarOverhead(n)
	}
}

// rgbToGrayNEON processes 8 pixels per iteration: one vld3.8 deinterleave,
// a widening multiply and two widening multiply-accumulates against the
// luma weights, a rounding narrow, and one store.
func (o *Ops) rgbToGrayNEON(src *image.RGB, dst *image.Mat) {
	a := grayArgs{rgb: src.Pix, d: dst.U8Pix}
	a.wr = o.n.VdupNU8(grayR)
	a.wg = o.n.VdupNU8(grayG)
	a.wb = o.n.VdupNU8(grayB)
	parFlat(o, dst.Pixels(), a, grayNEONChunk, grayNEONChunkLanes)
}

func grayNEONChunk(b *Ops, a grayArgs, lo, hi int) {
	u := b.n
	i := lo
	for ; i+8 <= hi; i += 8 {
		planes := u.Vld3U8(a.rgb[3*i:])
		acc := u.VmullU8(planes[0], a.wr)
		acc = u.VmlalU8(acc, planes[1], a.wg)
		acc = u.VmlalU8(acc, planes[2], a.wb)
		u.Vst1U8(a.d[i:], u.VrshrnNU16(acc, grayShift))
		u.Overhead(2, 1, 0)
	}
	for ; i < hi; i++ {
		a.d[i] = grayPixel(a.rgb[3*i], a.rgb[3*i+1], a.rgb[3*i+2])
		if b.T != nil {
			b.count(opGrayTail, 9)
			b.scalarOverhead(1)
		}
	}
}
