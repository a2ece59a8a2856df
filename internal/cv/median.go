package cv

import (
	"context"

	"simdstudy/internal/image"
	"simdstudy/internal/vec"
)

// MedianBlur3x3Ctx applies a 3x3 median filter with replicated borders.
// Median blur is the headline kernel of the paper's related work (Pulli et
// al. report a 23x NEON speedup on Tegra 3): the 9-element median reduces
// to a fixed network of 19 min/max operations, which vectorizes perfectly
// (vmin.u8/vmax.u8, pminub/pmaxub) while the scalar build must run the
// same network one pixel at a time — and gcc cannot auto-vectorize it
// because each pixel's network is a different data-dependent permutation
// in source form.
// Cancellation is row-granular.
func (o *Ops) MedianBlur3x3Ctx(ctx context.Context, src, dst *image.Mat) error {
	return o.call(ctx, "MedianBlur3x3", dst.Height, func() error {
		if err := requireKind(src, image.U8, "MedianBlur3x3 src"); err != nil {
			return err
		}
		if err := requireKind(dst, image.U8, "MedianBlur3x3 dst"); err != nil {
			return err
		}
		if err := sameShape(src, dst); err != nil {
			return err
		}
		return o.plane(gkMedian, src, dst, medianRun)
	})
}

func medianRun(op *Ops, s, d *image.Mat) {
	switch op.path() {
	case ISANEON:
		op.medianNEON(s, d)
	case ISASSE2:
		op.medianSSE2(s, d)
	default:
		op.medianScalar(s, d)
	}
}

// median9 runs the canonical 19-comparator median-of-9 exchange network
// (Smith/Paeth) over p; see medianOf9.
func median9(p *[9]uint8) uint8 {
	return medianOf9(p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7], p[8])
}

// medianOf9 runs the canonical 19-comparator median-of-9 exchange network
// (Smith/Paeth); the SIMD paths run the identical network lane-wise, so
// every path is bit-exact. Each exchange is a branch-free min/max pair:
// a compare-and-swap would branch on pixel data and mispredict. The nine
// values arrive and stay in registers, not in an array in memory.
func medianOf9(p0, p1, p2, p3, p4, p5, p6, p7, p8 uint8) uint8 {
	p1, p2 = sort2(p1, p2)
	p4, p5 = sort2(p4, p5)
	p7, p8 = sort2(p7, p8)
	p0, p1 = sort2(p0, p1)
	p3, p4 = sort2(p3, p4)
	p6, p7 = sort2(p6, p7)
	p1, p2 = sort2(p1, p2)
	p4, p5 = sort2(p4, p5)
	p7, p8 = sort2(p7, p8)
	p0, p3 = sort2(p0, p3)
	p5, p8 = sort2(p5, p8)
	p4, p7 = sort2(p4, p7)
	p3, p6 = sort2(p3, p6)
	p1, p4 = sort2(p1, p4)
	p2, p5 = sort2(p2, p5)
	p4, p7 = sort2(p4, p7)
	p4, p2 = sort2(p4, p2)
	p6, p4 = sort2(p6, p4)
	p4, _ = sort2(p4, p2)
	return p4
}

// sort2 returns the smaller and the larger of x and y without a branch.
func sort2(x, y uint8) (lo, hi uint8) {
	d := (int32(x) - int32(y)) & ((int32(x) - int32(y)) >> 31) // x-y where x < y, else 0
	return uint8(int32(y) + d), uint8(int32(x) - d)
}

func medianPixel(pix []uint8, w, h, x, y int) uint8 {
	var n [9]uint8
	k := 0
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			n[k] = pix[clampIdx(y+dy, h)*w+clampIdx(x+dx, w)]
			k++
		}
	}
	return median9(&n)
}

// medianArgs bundles the median pass for the banded row bodies. Row bodies
// read up to one halo row above and below via clamped indexing on the
// read-only source plane.
type medianArgs struct {
	src, dst []uint8
	w, h     int
}

func (o *Ops) medianScalar(src, dst *image.Mat) {
	a := medianArgs{src: src.U8Pix, dst: dst.U8Pix, w: src.Width, h: src.Height}
	lastPass(o, src.Height, a, medianScalarRow)
}

func medianScalarRow(b *Ops, a medianArgs, y int) {
	w, h := a.w, a.h
	r0 := a.src[clampIdx(y-1, h)*w:][:w]
	r1 := a.src[y*w:][:w]
	r2 := a.src[clampIdx(y+1, h)*w:][:w]
	out := a.dst[y*w : (y+1)*w]
	for x := range out {
		// The clamped neighbourhood medianPixel gathers, with the rows
		// clamped once per row rather than per pixel.
		xl, xr := max(x-1, 0), min(x+1, w-1)
		out[x] = medianOf9(r0[xl], r0[x], r0[xr], r1[xl], r1[x], r1[xr], r2[xl], r2[x], r2[xr])
	}
	if b.T != nil {
		px := uint64(w)
		b.count(opLdrb9, 9*px)
		b.count(opCmpSelNet, 19*2*px)
		b.count(opStrb, px)
		b.scalarOverhead(px)
	}
}

// medianNetworkNEON applies the 19-op network on nine Q registers,
// 16 pixels at once.
func (o *Ops) medianNetworkNEON(p *[9]vec.V128) vec.V128 {
	u := o.n
	op := func(a, b int) {
		lo := u.VminqU8(p[a], p[b])
		hi := u.VmaxqU8(p[a], p[b])
		p[a], p[b] = lo, hi
	}
	op(1, 2)
	op(4, 5)
	op(7, 8)
	op(0, 1)
	op(3, 4)
	op(6, 7)
	op(1, 2)
	op(4, 5)
	op(7, 8)
	op(0, 3)
	op(5, 8)
	op(4, 7)
	op(3, 6)
	op(1, 4)
	op(2, 5)
	op(4, 7)
	op(4, 2)
	op(6, 4)
	op(4, 2)
	return p[4]
}

func (o *Ops) medianNEON(src, dst *image.Mat) {
	a := medianArgs{src: src.U8Pix, dst: dst.U8Pix, w: src.Width, h: src.Height}
	parRows(o, src.Height, a, medianNEONRow, medianNEONRowLanes)
}

func medianNEONRow(b *Ops, a medianArgs, y int) {
	w, h := a.w, a.h
	u := b.n
	rows := [3][]uint8{
		a.src[clampIdx(y-1, h)*w:],
		a.src[y*w:],
		a.src[clampIdx(y+1, h)*w:],
	}
	out := a.dst[y*w : (y+1)*w]
	edge := 0
	x := 0
	for ; x < 1 && x < w; x++ {
		out[x] = medianPixel(a.src, w, h, x, y)
		edge++
	}
	for ; x+16 <= w-1; x += 16 {
		var p [9]vec.V128
		for r := 0; r < 3; r++ {
			p[3*r] = u.Vld1qU8(rows[r][x-1:])
			p[3*r+1] = u.Vld1qU8(rows[r][x:])
			p[3*r+2] = u.Vld1qU8(rows[r][x+1:])
		}
		u.Vst1qU8(out[x:], b.medianNetworkNEON(&p))
		u.Overhead(2, 1, 0)
	}
	for ; x < w; x++ {
		out[x] = medianPixel(a.src, w, h, x, y)
		edge++
	}
	b.medianTailCost(uint64(edge))
}

func (o *Ops) medianTailCost(pixels uint64) {
	if o.T == nil || pixels == 0 {
		return
	}
	o.count(opMedianTail, 47*pixels)
	o.scalarOverhead(pixels)
}

// medianNetworkSSE2 is the same network on pminub/pmaxub.
func (o *Ops) medianNetworkSSE2(p *[9]vec.V128) vec.V128 {
	u := o.s
	op := func(a, b int) {
		lo := u.MinEpu8(p[a], p[b])
		hi := u.MaxEpu8(p[a], p[b])
		p[a], p[b] = lo, hi
	}
	op(1, 2)
	op(4, 5)
	op(7, 8)
	op(0, 1)
	op(3, 4)
	op(6, 7)
	op(1, 2)
	op(4, 5)
	op(7, 8)
	op(0, 3)
	op(5, 8)
	op(4, 7)
	op(3, 6)
	op(1, 4)
	op(2, 5)
	op(4, 7)
	op(4, 2)
	op(6, 4)
	op(4, 2)
	return p[4]
}

func (o *Ops) medianSSE2(src, dst *image.Mat) {
	a := medianArgs{src: src.U8Pix, dst: dst.U8Pix, w: src.Width, h: src.Height}
	parRows(o, src.Height, a, medianSSE2Row, medianSSE2RowLanes)
}

func medianSSE2Row(b *Ops, a medianArgs, y int) {
	w, h := a.w, a.h
	u := b.s
	rows := [3][]uint8{
		a.src[clampIdx(y-1, h)*w:],
		a.src[y*w:],
		a.src[clampIdx(y+1, h)*w:],
	}
	out := a.dst[y*w : (y+1)*w]
	edge := 0
	x := 0
	for ; x < 1 && x < w; x++ {
		out[x] = medianPixel(a.src, w, h, x, y)
		edge++
	}
	for ; x+16 <= w-1; x += 16 {
		var p [9]vec.V128
		for r := 0; r < 3; r++ {
			p[3*r] = u.LoaduSi128U8(rows[r][x-1:])
			p[3*r+1] = u.LoaduSi128U8(rows[r][x:])
			p[3*r+2] = u.LoaduSi128U8(rows[r][x+1:])
		}
		u.StoreuSi128U8(out[x:], b.medianNetworkSSE2(&p))
		u.Overhead(2, 1, 0)
	}
	for ; x < w; x++ {
		out[x] = medianPixel(a.src, w, h, x, y)
		edge++
	}
	b.medianTailCost(uint64(edge))
}
