package cv

import (
	"context"
	"fmt"

	"simdstudy/internal/image"
	"simdstudy/internal/par"
	"simdstudy/internal/vec"
)

// SobelFilter computes the first derivative of a U8 image into an S16 image
// using the separable 3x3 Sobel operator, the paper's benchmark 4. dx=1,dy=0
// selects the horizontal gradient ([-1 0 1] differentiator with [1 2 1]
// cross-smoothing); dx=0,dy=1 the vertical. Borders are replicated.
//
// Each pass is row-banded when parallelism is configured: the vertical
// passes read one halo row above and below from the intermediate plane,
// which is read-only by then, and the pass boundary is a barrier.
func (o *Ops) SobelFilter(src, dst *image.Mat, dx, dy int) error {
	return o.SobelFilterCtx(nil, src, dst, dx, dy)
}

// SobelFilterCtx is SobelFilter with row-granular cancellation across both
// passes.
func (o *Ops) SobelFilterCtx(ctx context.Context, src, dst *image.Mat, dx, dy int) error {
	return o.call(ctx, "SobelFilter", 2*dst.Height, func() error {
		if err := requireKind(src, image.U8, "SobelFilter src"); err != nil {
			return err
		}
		if err := requireKind(dst, image.S16, "SobelFilter dst"); err != nil {
			return err
		}
		if err := sameShape(src, dst); err != nil {
			return err
		}
		switch {
		case dx == 1 && dy == 0:
			return o.plane(gkSobel, src, dst, sobelXRun)
		case dx == 0 && dy == 1:
			return o.plane(gkSobel, src, dst, sobelYRun)
		}
		return fmt.Errorf("cv: SobelFilter supports (dx,dy) of (1,0) or (0,1), got (%d,%d)", dx, dy)
	})
}

// sobelPlane takes an S16 plane of w x h from the par recycler for the
// Sobel passes to write: a scratch plane, a gradient plane or a fused strip
// window. The passes write every element before a stage reads it, so the
// plane comes unzeroed. With a fault injector attached a skewed store can
// leave an element unwritten; the plane then comes zeroed, so the hole
// reads 0, as on a fresh plane, and never what an earlier call left there.
func (o *Ops) sobelPlane(w, h int) *image.Mat {
	if o.injector != nil {
		return par.GetMat(w, h, image.S16)
	}
	return par.GetMatForOverwrite(w, h, image.S16)
}

// sobelXRun is the x-gradient: a horizontal difference, then a vertical
// smooth.
func sobelXRun(op *Ops, s, d *image.Mat) {
	tmp := op.sobelPlane(s.Width, s.Height)
	defer par.PutMat(tmp)
	switch op.path() {
	case ISANEON:
		op.sobelDiffHNEON(s, tmp)
		op.sobelSmoothVNEON(tmp, d)
	case ISASSE2:
		op.sobelDiffHSSE2(s, tmp)
		op.sobelSmoothVSSE2(tmp, d)
	default:
		op.sobelDiffHScalar(s, tmp)
		op.sobelSmoothVScalar(tmp, d)
	}
}

// sobelYRun is the y-gradient: a horizontal smooth, then a vertical
// difference.
func sobelYRun(op *Ops, s, d *image.Mat) {
	tmp := op.sobelPlane(s.Width, s.Height)
	defer par.PutMat(tmp)
	switch op.path() {
	case ISANEON:
		op.sobelSmoothHNEON(s, tmp)
		op.sobelDiffVNEON(tmp, d)
	case ISASSE2:
		op.sobelSmoothHSSE2(s, tmp)
		op.sobelDiffVSSE2(tmp, d)
	default:
		op.sobelSmoothHScalar(s, tmp)
		op.sobelDiffVScalar(tmp, d)
	}
}

// --- Scalar reference pieces. SIMD paths call these for borders so all
// paths agree bit-for-bit. ---

// diffHPixel is src[x+1]-src[x-1] with replicated borders.
func diffHPixel(row []uint8, w, x int) int16 {
	return int16(row[clampIdx(x+1, w)]) - int16(row[clampIdx(x-1, w)])
}

// smoothHPixel is src[x-1]+2*src[x]+src[x+1] with replicated borders.
func smoothHPixel(row []uint8, w, x int) int16 {
	return int16(row[clampIdx(x-1, w)]) + 2*int16(row[x]) + int16(row[clampIdx(x+1, w)])
}

func (o *Ops) sobelRowCost(pixels uint64, taps int) {
	if o.T == nil {
		return
	}
	o.count(opLdrTap, uint64(taps)*pixels)
	o.count(opAddSub, uint64(taps)*pixels)
	o.count(opStrS16, pixels)
	o.scalarOverhead(pixels)
}

// sobelArgs bundles one Sobel pass for the banded row bodies. in8 is the
// source plane of the U8->S16 horizontal passes; in16 the S16 plane of the
// vertical passes; out is always the S16 destination of the pass.
//
// inLo and outLo are the plane rows at which in16 and out begin: zero on
// the staged path (full planes), the rolling window's first live row on
// the fused path. The bodies index through them, so the same row bodies —
// and with them the recorded instruction streams — serve both paths.
type sobelArgs struct {
	in8   []uint8
	in16  []int16
	out   []int16
	w, h  int
	inLo  int
	outLo int
	zero  vec.V128 // SSE2 unpack constant, hoisted on the parent
}

func (o *Ops) sobelDiffHScalar(src, tmp *image.Mat) {
	a := sobelArgs{in8: src.U8Pix, out: tmp.S16Pix, w: src.Width, h: src.Height}
	parRows(o, src.Height, a, sobelDiffHScalarRow, nil)
}

func sobelDiffHScalarRow(b *Ops, a sobelArgs, y int) {
	w := a.w
	row := a.in8[y*w : (y+1)*w]
	out := a.out[(y-a.outLo)*w : (y-a.outLo+1)*w]
	for x := 0; x < w; x++ {
		out[x] = diffHPixel(row, w, x)
	}
	b.sobelRowCost(uint64(w), 2)
}

func (o *Ops) sobelSmoothHScalar(src, tmp *image.Mat) {
	a := sobelArgs{in8: src.U8Pix, out: tmp.S16Pix, w: src.Width, h: src.Height}
	parRows(o, src.Height, a, sobelSmoothHScalarRow, nil)
}

func sobelSmoothHScalarRow(b *Ops, a sobelArgs, y int) {
	w := a.w
	row := a.in8[y*w : (y+1)*w]
	out := a.out[(y-a.outLo)*w : (y-a.outLo+1)*w]
	for x := 0; x < w; x++ {
		out[x] = smoothHPixel(row, w, x)
	}
	b.sobelRowCost(uint64(w), 3)
}

func (o *Ops) sobelSmoothVScalar(tmp, dst *image.Mat) {
	a := sobelArgs{in16: tmp.S16Pix, out: dst.S16Pix, w: tmp.Width, h: tmp.Height}
	parRows(o, tmp.Height, a, sobelSmoothVScalarRow, nil)
}

func sobelSmoothVScalarRow(b *Ops, a sobelArgs, y int) {
	w, h := a.w, a.h
	r0 := a.in16[(clampIdx(y-1, h)-a.inLo)*w:]
	r1 := a.in16[(y-a.inLo)*w:]
	r2 := a.in16[(clampIdx(y+1, h)-a.inLo)*w:]
	out := a.out[(y-a.outLo)*w : (y-a.outLo+1)*w]
	for x := 0; x < w; x++ {
		out[x] = r0[x] + 2*r1[x] + r2[x]
	}
	b.sobelRowCost(uint64(w), 3)
}

func (o *Ops) sobelDiffVScalar(tmp, dst *image.Mat) {
	a := sobelArgs{in16: tmp.S16Pix, out: dst.S16Pix, w: tmp.Width, h: tmp.Height}
	parRows(o, tmp.Height, a, sobelDiffVScalarRow, nil)
}

func sobelDiffVScalarRow(b *Ops, a sobelArgs, y int) {
	w, h := a.w, a.h
	r0 := a.in16[(clampIdx(y-1, h)-a.inLo)*w:]
	r2 := a.in16[(clampIdx(y+1, h)-a.inLo)*w:]
	out := a.out[(y-a.outLo)*w : (y-a.outLo+1)*w]
	for x := 0; x < w; x++ {
		out[x] = r2[x] - r0[x]
	}
	b.sobelRowCost(uint64(w), 2)
}

func (o *Ops) sobelTailCost(pixels uint64) {
	if o.T == nil || pixels == 0 {
		return
	}
	o.count(opSobelTail, 5*pixels)
	o.scalarOverhead(pixels)
}

// --- NEON ---

// sobelDiffHNEON: 8 pixels/iter via one widening subtract.
func (o *Ops) sobelDiffHNEON(src, tmp *image.Mat) {
	defer o.n.Session("sobel.diffH", o.curSpan()).End()
	a := sobelArgs{in8: src.U8Pix, out: tmp.S16Pix, w: src.Width, h: src.Height}
	parRows(o, src.Height, a, sobelDiffHNEONRow, sobelDiffHNEONRowLanes)
}

func sobelDiffHNEONRow(b *Ops, a sobelArgs, y int) {
	w := a.w
	u := b.n
	row := a.in8[y*w : (y+1)*w]
	out := a.out[(y-a.outLo)*w : (y-a.outLo+1)*w]
	edge := 0
	x := 0
	for ; x < 1 && x < w; x++ {
		out[x] = diffHPixel(row, w, x)
		edge++
	}
	for ; x+8 <= w-1; x += 8 {
		d := u.VsublU8(u.Vld1U8(row[x+1:]), u.Vld1U8(row[x-1:]))
		u.Vst1qS16(out[x:], d)
		u.Overhead(2, 1, 0)
	}
	for ; x < w; x++ {
		out[x] = diffHPixel(row, w, x)
		edge++
	}
	b.sobelTailCost(uint64(edge))
}

// sobelSmoothHNEON: 8 pixels/iter: widening add of the outer taps plus two
// widening adds of the centre.
func (o *Ops) sobelSmoothHNEON(src, tmp *image.Mat) {
	defer o.n.Session("sobel.smoothH", o.curSpan()).End()
	a := sobelArgs{in8: src.U8Pix, out: tmp.S16Pix, w: src.Width, h: src.Height}
	parRows(o, src.Height, a, sobelSmoothHNEONRow, sobelSmoothHNEONRowLanes)
}

func sobelSmoothHNEONRow(b *Ops, a sobelArgs, y int) {
	w := a.w
	u := b.n
	row := a.in8[y*w : (y+1)*w]
	out := a.out[(y-a.outLo)*w : (y-a.outLo+1)*w]
	edge := 0
	x := 0
	for ; x < 1 && x < w; x++ {
		out[x] = smoothHPixel(row, w, x)
		edge++
	}
	for ; x+8 <= w-1; x += 8 {
		centre := u.Vld1U8(row[x:])
		acc := u.VaddlU8(u.Vld1U8(row[x-1:]), u.Vld1U8(row[x+1:]))
		acc = u.VaddwU8(acc, centre)
		acc = u.VaddwU8(acc, centre)
		u.Vst1qS16(out[x:], acc)
		u.Overhead(2, 1, 0)
	}
	for ; x < w; x++ {
		out[x] = smoothHPixel(row, w, x)
		edge++
	}
	b.sobelTailCost(uint64(edge))
}

// sobelSmoothVNEON: 8 pixels/iter on S16 rows: add outer rows, add centre
// shifted left by one.
func (o *Ops) sobelSmoothVNEON(tmp, dst *image.Mat) {
	defer o.n.Session("sobel.smoothV", o.curSpan()).End()
	a := sobelArgs{in16: tmp.S16Pix, out: dst.S16Pix, w: tmp.Width, h: tmp.Height}
	parRows(o, tmp.Height, a, sobelSmoothVNEONRow, sobelSmoothVNEONRowLanes)
}

func sobelSmoothVNEONRow(b *Ops, a sobelArgs, y int) {
	w, h := a.w, a.h
	u := b.n
	r0 := a.in16[(clampIdx(y-1, h)-a.inLo)*w:]
	r1 := a.in16[(y-a.inLo)*w:]
	r2 := a.in16[(clampIdx(y+1, h)-a.inLo)*w:]
	out := a.out[(y-a.outLo)*w : (y-a.outLo+1)*w]
	edge := 0
	x := 0
	for ; x+8 <= w; x += 8 {
		acc := u.VaddqS16(u.Vld1qS16(r0[x:]), u.Vld1qS16(r2[x:]))
		acc = u.VaddqS16(acc, u.VshlqNS16(u.Vld1qS16(r1[x:]), 1))
		u.Vst1qS16(out[x:], acc)
		u.Overhead(2, 1, 0)
	}
	for ; x < w; x++ {
		out[x] = r0[x] + 2*r1[x] + r2[x]
		edge++
	}
	b.sobelTailCost(uint64(edge))
}

// sobelDiffVNEON: 8 pixels/iter on S16 rows: one subtract.
func (o *Ops) sobelDiffVNEON(tmp, dst *image.Mat) {
	defer o.n.Session("sobel.diffV", o.curSpan()).End()
	a := sobelArgs{in16: tmp.S16Pix, out: dst.S16Pix, w: tmp.Width, h: tmp.Height}
	parRows(o, tmp.Height, a, sobelDiffVNEONRow, sobelDiffVNEONRowLanes)
}

func sobelDiffVNEONRow(b *Ops, a sobelArgs, y int) {
	w, h := a.w, a.h
	u := b.n
	r0 := a.in16[(clampIdx(y-1, h)-a.inLo)*w:]
	r2 := a.in16[(clampIdx(y+1, h)-a.inLo)*w:]
	out := a.out[(y-a.outLo)*w : (y-a.outLo+1)*w]
	edge := 0
	x := 0
	for ; x+8 <= w; x += 8 {
		d := u.VsubqS16(u.Vld1qS16(r2[x:]), u.Vld1qS16(r0[x:]))
		u.Vst1qS16(out[x:], d)
		u.Overhead(2, 1, 0)
	}
	for ; x < w; x++ {
		out[x] = r2[x] - r0[x]
		edge++
	}
	b.sobelTailCost(uint64(edge))
}

// --- SSE2 ---

// sobelDiffHSSE2: 8 pixels/iter: unpack both neighbours to words, subtract.
func (o *Ops) sobelDiffHSSE2(src, tmp *image.Mat) {
	defer o.s.Session("sobel.diffH", o.curSpan()).End()
	a := sobelArgs{in8: src.U8Pix, out: tmp.S16Pix, w: src.Width, h: src.Height}
	a.zero = o.s.SetzeroSi128()
	parRows(o, src.Height, a, sobelDiffHSSE2Row, sobelDiffHSSE2RowLanes)
}

func sobelDiffHSSE2Row(b *Ops, a sobelArgs, y int) {
	w := a.w
	u := b.s
	row := a.in8[y*w : (y+1)*w]
	out := a.out[(y-a.outLo)*w : (y-a.outLo+1)*w]
	edge := 0
	x := 0
	for ; x < 1 && x < w; x++ {
		out[x] = diffHPixel(row, w, x)
		edge++
	}
	for ; x+8 <= w-1; x += 8 {
		p := u.UnpackloEpi8(u.LoadlEpi64U8(row[x+1:]), a.zero)
		q := u.UnpackloEpi8(u.LoadlEpi64U8(row[x-1:]), a.zero)
		u.StoreuSi128S16(out[x:], u.SubEpi16(p, q))
		u.Overhead(2, 1, 0)
	}
	for ; x < w; x++ {
		out[x] = diffHPixel(row, w, x)
		edge++
	}
	b.sobelTailCost(uint64(edge))
}

// sobelSmoothHSSE2: 8 pixels/iter.
func (o *Ops) sobelSmoothHSSE2(src, tmp *image.Mat) {
	defer o.s.Session("sobel.smoothH", o.curSpan()).End()
	a := sobelArgs{in8: src.U8Pix, out: tmp.S16Pix, w: src.Width, h: src.Height}
	a.zero = o.s.SetzeroSi128()
	parRows(o, src.Height, a, sobelSmoothHSSE2Row, sobelSmoothHSSE2RowLanes)
}

func sobelSmoothHSSE2Row(b *Ops, a sobelArgs, y int) {
	w := a.w
	u := b.s
	row := a.in8[y*w : (y+1)*w]
	out := a.out[(y-a.outLo)*w : (y-a.outLo+1)*w]
	edge := 0
	x := 0
	for ; x < 1 && x < w; x++ {
		out[x] = smoothHPixel(row, w, x)
		edge++
	}
	for ; x+8 <= w-1; x += 8 {
		l := u.UnpackloEpi8(u.LoadlEpi64U8(row[x-1:]), a.zero)
		c := u.UnpackloEpi8(u.LoadlEpi64U8(row[x:]), a.zero)
		r := u.UnpackloEpi8(u.LoadlEpi64U8(row[x+1:]), a.zero)
		acc := u.AddEpi16(u.AddEpi16(l, r), u.SlliEpi16(c, 1))
		u.StoreuSi128S16(out[x:], acc)
		u.Overhead(2, 1, 0)
	}
	for ; x < w; x++ {
		out[x] = smoothHPixel(row, w, x)
		edge++
	}
	b.sobelTailCost(uint64(edge))
}

// sobelSmoothVSSE2: 8 pixels/iter on S16 rows.
func (o *Ops) sobelSmoothVSSE2(tmp, dst *image.Mat) {
	defer o.s.Session("sobel.smoothV", o.curSpan()).End()
	a := sobelArgs{in16: tmp.S16Pix, out: dst.S16Pix, w: tmp.Width, h: tmp.Height}
	parRows(o, tmp.Height, a, sobelSmoothVSSE2Row, sobelSmoothVSSE2RowLanes)
}

func sobelSmoothVSSE2Row(b *Ops, a sobelArgs, y int) {
	w, h := a.w, a.h
	u := b.s
	r0 := a.in16[(clampIdx(y-1, h)-a.inLo)*w:]
	r1 := a.in16[(y-a.inLo)*w:]
	r2 := a.in16[(clampIdx(y+1, h)-a.inLo)*w:]
	out := a.out[(y-a.outLo)*w : (y-a.outLo+1)*w]
	edge := 0
	x := 0
	for ; x+8 <= w; x += 8 {
		acc := u.AddEpi16(u.LoaduSi128S16(r0[x:]), u.LoaduSi128S16(r2[x:]))
		acc = u.AddEpi16(acc, u.SlliEpi16(u.LoaduSi128S16(r1[x:]), 1))
		u.StoreuSi128S16(out[x:], acc)
		u.Overhead(2, 1, 0)
	}
	for ; x < w; x++ {
		out[x] = r0[x] + 2*r1[x] + r2[x]
		edge++
	}
	b.sobelTailCost(uint64(edge))
}

// sobelDiffVSSE2: 8 pixels/iter on S16 rows.
func (o *Ops) sobelDiffVSSE2(tmp, dst *image.Mat) {
	defer o.s.Session("sobel.diffV", o.curSpan()).End()
	a := sobelArgs{in16: tmp.S16Pix, out: dst.S16Pix, w: tmp.Width, h: tmp.Height}
	parRows(o, tmp.Height, a, sobelDiffVSSE2Row, sobelDiffVSSE2RowLanes)
}

func sobelDiffVSSE2Row(b *Ops, a sobelArgs, y int) {
	w, h := a.w, a.h
	u := b.s
	r0 := a.in16[(clampIdx(y-1, h)-a.inLo)*w:]
	r2 := a.in16[(clampIdx(y+1, h)-a.inLo)*w:]
	out := a.out[(y-a.outLo)*w : (y-a.outLo+1)*w]
	edge := 0
	x := 0
	for ; x+8 <= w; x += 8 {
		u.StoreuSi128S16(out[x:], u.SubEpi16(u.LoaduSi128S16(r2[x:]), u.LoaduSi128S16(r0[x:])))
		u.Overhead(2, 1, 0)
	}
	for ; x < w; x++ {
		out[x] = r2[x] - r0[x]
		edge++
	}
	b.sobelTailCost(uint64(edge))
}
