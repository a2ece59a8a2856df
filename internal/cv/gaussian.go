package cv

import (
	"context"

	"simdstudy/internal/image"
	"simdstudy/internal/par"
	"simdstudy/internal/vec"
)

// GaussKernel7 is the 7-tap Gaussian kernel for sigma=1 in 8.8 fixed point
// (weights sum to exactly 256), the discretization OpenCV's 8-bit filters
// use. The paper's benchmark 3 convolves with an anisotropic Gaussian of
// standard deviation 1; for 8U images OpenCV derives a 7-tap kernel.
var GaussKernel7 = [7]uint16{gaussW0, gaussW1, gaussW2, gaussW3, gaussW2, gaussW1, gaussW0}

// The kernel's symmetric weights, outermost tap first, as constants so
// the scalar taps multiply by immediates.
const (
	gaussW0 = 1
	gaussW1 = 14
	gaussW2 = 62
	gaussW3 = 102
)

const gaussShift = 8 // fixed-point fractional bits; kernel sums to 1<<8

// GaussianBlur convolves a U8 image with the separable 7x7 Gaussian
// (sigma=1), replicating borders, the paper's benchmark 3.
//
// Both separable passes are row-banded when parallelism is configured
// (SetParallel): rows are independent within a pass — the vertical pass
// reads up to three rows above and below its own from the intermediate
// plane, but that plane was fully written before the pass started, so the
// halo is plain shared-read data — and the pass boundary is a barrier.
func (o *Ops) GaussianBlur(src, dst *image.Mat) error { return o.GaussianBlurCtx(nil, src, dst) }

// GaussianBlurCtx is GaussianBlur with row-granular cancellation across
// both separable passes.
func (o *Ops) GaussianBlurCtx(ctx context.Context, src, dst *image.Mat) error {
	return o.call(ctx, "GaussianBlur", 2*dst.Height, func() error {
		if err := requireKind(src, image.U8, "GaussianBlur src"); err != nil {
			return err
		}
		if err := requireKind(dst, image.U8, "GaussianBlur dst"); err != nil {
			return err
		}
		if err := sameShape(src, dst); err != nil {
			return err
		}
		return o.plane(gkGaussian, src, dst, gaussRun)
	})
}

func gaussRun(op *Ops, s, d *image.Mat) {
	tmp := par.GetMat(s.Width, s.Height, image.U8)
	defer par.PutMat(tmp)
	switch op.path() {
	case ISANEON:
		op.gaussHorizNEON(s, tmp)
		op.gaussVertNEON(tmp, d)
	case ISASSE2:
		op.gaussHorizSSE2(s, tmp)
		op.gaussVertSSE2(tmp, d)
	default:
		op.gaussHorizScalar(s, tmp)
		op.gaussVertScalar(tmp, d)
	}
}

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// gaussPixelH computes one horizontally filtered pixel with replicated
// borders. Both the scalar path and the SIMD prologue/epilogue use this so
// all paths are bit-exact.
func gaussPixelH(row []uint8, w, x int) uint8 {
	var acc uint32
	for k := 0; k < 7; k++ {
		acc += uint32(GaussKernel7[k]) * uint32(row[clampIdx(x+k-3, w)])
	}
	return uint8((acc + 1<<(gaussShift-1)) >> gaussShift)
}

// gaussPixelV computes one vertically filtered pixel with replicated
// borders; pix is the full image plane.
func gaussPixelV(pix []uint8, w, h, x, y int) uint8 {
	var acc uint32
	for k := 0; k < 7; k++ {
		acc += uint32(GaussKernel7[k]) * uint32(pix[clampIdx(y+k-3, h)*w+x])
	}
	return uint8((acc + 1<<(gaussShift-1)) >> gaussShift)
}

func (o *Ops) gaussScalarRowCost(pixels uint64) {
	if o.T == nil {
		return
	}
	// Per pixel: 7 loads, 7 multiplies, 7 adds (one folded), shift, store.
	o.count(opLdrbTap, 7*pixels)
	o.count(opMulTap, 7*pixels)
	o.count(opAddAcc, 7*pixels)
	o.count(opShrStrb, pixels)
	o.scalarOverhead(pixels)
}

// gaussArgs bundles one Gaussian pass for the banded row bodies: the source
// and destination planes plus the vector weights, broadcast (and their setup
// instructions recorded) once per pass on the parent Ops.
type gaussArgs struct {
	src, dst   []uint8
	w, h       int
	wd         [7]vec.V64  // NEON weight bytes
	wv         [7]vec.V128 // SSE2 weight words
	zero, half vec.V128
}

func (o *Ops) gaussHorizScalar(src, dst *image.Mat) {
	a := gaussArgs{src: src.U8Pix, dst: dst.U8Pix, w: src.Width, h: src.Height}
	parRows(o, src.Height, a, gaussHorizScalarRow, nil)
}

func gaussHorizScalarRow(b *Ops, a gaussArgs, y int) {
	w := a.w
	row := a.src[y*w : (y+1)*w]
	out := a.dst[y*w : (y+1)*w]
	for x := range out {
		if x < 3 || x+3 >= w {
			out[x] = gaussPixelH(row, w, x)
			continue
		}
		// Interior: all seven taps in range, no clamping needed.
		out[x] = gaussTaps((*[7]uint8)(row[x-3 : x+4]))
	}
	b.gaussScalarRowCost(uint64(w))
}

// gaussTaps filters seven in-range taps exactly as gaussPixelH and
// gaussPixelV do. It is the scalar rows' inner loop and so the guard
// referee's: folding the symmetric taps onto constant weights keeps the
// referee a small share of a guarded call as the emulated rows speed up.
func gaussTaps(t *[7]uint8) uint8 {
	acc := gaussW0*(uint32(t[0])+uint32(t[6])) + gaussW1*(uint32(t[1])+uint32(t[5])) +
		gaussW2*(uint32(t[2])+uint32(t[4])) + gaussW3*uint32(t[3])
	return uint8((acc + 1<<(gaussShift-1)) >> gaussShift)
}

func (o *Ops) gaussVertScalar(src, dst *image.Mat) {
	a := gaussArgs{src: src.U8Pix, dst: dst.U8Pix, w: src.Width, h: src.Height}
	lastPass(o, src.Height, a, gaussVertScalarRow)
}

func gaussVertScalarRow(b *Ops, a gaussArgs, y int) {
	w, h := a.w, a.h
	// The clamped rows gaussPixelV reads, clamped once per row rather
	// than per pixel.
	var r [7][]uint8
	for k := range r {
		ry := clampIdx(y+k-3, h)
		r[k] = a.src[ry*w : (ry+1)*w]
	}
	out := a.dst[y*w : (y+1)*w]
	for x := range out {
		t := [7]uint8{r[0][x], r[1][x], r[2][x], r[3][x], r[4][x], r[5][x], r[6][x]}
		out[x] = gaussTaps(&t)
	}
	b.gaussScalarRowCost(uint64(w))
}

// scalarEdgeCost records the cost of SIMD-path border pixels computed in
// scalar code.
func (o *Ops) scalarEdgeCost(pixels uint64) {
	if o.T == nil || pixels == 0 {
		return
	}
	o.count(opGaussTail, 15*pixels)
	o.scalarOverhead(pixels)
}

// gaussHorizNEON filters rows, 8 pixels per iteration: one widening
// multiply plus six widening multiply-accumulates against dup'd weights,
// then a rounding shift-narrow.
func (o *Ops) gaussHorizNEON(src, dst *image.Mat) {
	defer o.n.Session("gauss.horiz", o.curSpan()).End()
	a := gaussArgs{src: src.U8Pix, dst: dst.U8Pix, w: src.Width, h: src.Height}
	// Weight bytes broadcast once per image, hoisted out of the loops.
	for k := range a.wd {
		a.wd[k] = o.n.VdupNU8(uint8(GaussKernel7[k]))
	}
	parRows(o, src.Height, a, gaussHorizNEONRow, gaussHorizNEONRowLanes)
}

func gaussHorizNEONRow(b *Ops, a gaussArgs, y int) {
	w := a.w
	u := b.n
	row := a.src[y*w : (y+1)*w]
	out := a.dst[y*w : (y+1)*w]
	edge := 0
	x := 0
	// Left border and narrow images: scalar.
	for ; x < 3 && x < w; x++ {
		out[x] = gaussPixelH(row, w, x)
		edge++
	}
	// Vector body needs source bytes x-3 .. x+4+7.
	for ; x+8 <= w-4; x += 8 {
		acc := u.VmullU8(u.Vld1U8(row[x-3:]), a.wd[0])
		for k := 1; k < 7; k++ {
			acc = u.VmlalU8(acc, u.Vld1U8(row[x+k-3:]), a.wd[k])
		}
		u.Vst1U8(out[x:], u.VrshrnNU16(acc, gaussShift))
		u.Overhead(2, 1, 0)
	}
	for ; x < w; x++ {
		out[x] = gaussPixelH(row, w, x)
		edge++
	}
	b.scalarEdgeCost(uint64(edge))
}

// gaussVertNEON filters columns, 8 pixels per iteration across each row;
// all columns vectorize because the taps come from neighbouring rows.
func (o *Ops) gaussVertNEON(src, dst *image.Mat) {
	defer o.n.Session("gauss.vert", o.curSpan()).End()
	a := gaussArgs{src: src.U8Pix, dst: dst.U8Pix, w: src.Width, h: src.Height}
	for k := range a.wd {
		a.wd[k] = o.n.VdupNU8(uint8(GaussKernel7[k]))
	}
	parRows(o, src.Height, a, gaussVertNEONRow, gaussVertNEONRowLanes)
}

func gaussVertNEONRow(b *Ops, a gaussArgs, y int) {
	w, h := a.w, a.h
	u := b.n
	r := [7][]uint8{}
	for k := 0; k < 7; k++ {
		ry := clampIdx(y+k-3, h)
		r[k] = a.src[ry*w : (ry+1)*w]
	}
	out := a.dst[y*w : (y+1)*w]
	edge := 0
	x := 0
	for ; x+8 <= w; x += 8 {
		acc := u.VmullU8(u.Vld1U8(r[0][x:]), a.wd[0])
		for k := 1; k < 7; k++ {
			acc = u.VmlalU8(acc, u.Vld1U8(r[k][x:]), a.wd[k])
		}
		u.Vst1U8(out[x:], u.VrshrnNU16(acc, gaussShift))
		u.Overhead(2, 1, 0)
	}
	for ; x < w; x++ {
		out[x] = gaussPixelV(a.src, w, h, x, y)
		edge++
	}
	b.scalarEdgeCost(uint64(edge))
}

// gaussHorizSSE2 filters rows, 8 pixels per iteration: bytes are unpacked
// against zero to words, multiplied with pmullw and accumulated with paddw.
func (o *Ops) gaussHorizSSE2(src, dst *image.Mat) {
	defer o.s.Session("gauss.horiz", o.curSpan()).End()
	a := gaussArgs{src: src.U8Pix, dst: dst.U8Pix, w: src.Width, h: src.Height}
	a.zero = o.s.SetzeroSi128()
	for k := range a.wv {
		a.wv[k] = o.s.Set1Epi16(int16(GaussKernel7[k]))
	}
	a.half = o.s.Set1Epi16(1 << (gaussShift - 1))
	parRows(o, src.Height, a, gaussHorizSSE2Row, gaussHorizSSE2RowLanes)
}

func gaussHorizSSE2Row(b *Ops, a gaussArgs, y int) {
	w := a.w
	u := b.s
	row := a.src[y*w : (y+1)*w]
	out := a.dst[y*w : (y+1)*w]
	edge := 0
	x := 0
	for ; x < 3 && x < w; x++ {
		out[x] = gaussPixelH(row, w, x)
		edge++
	}
	for ; x+8 <= w-4; x += 8 {
		v := u.UnpackloEpi8(u.LoadlEpi64U8(row[x-3:]), a.zero)
		acc := u.MulloEpi16(v, a.wv[0])
		for k := 1; k < 7; k++ {
			v = u.UnpackloEpi8(u.LoadlEpi64U8(row[x+k-3:]), a.zero)
			acc = u.AddEpi16(acc, u.MulloEpi16(v, a.wv[k]))
		}
		r := u.SrliEpi16(u.AddEpi16(acc, a.half), gaussShift)
		u.StorelEpi64U8(out[x:], u.PackusEpi16(r, r))
		u.Overhead(2, 1, 0)
	}
	for ; x < w; x++ {
		out[x] = gaussPixelH(row, w, x)
		edge++
	}
	b.scalarEdgeCost(uint64(edge))
}

// gaussVertSSE2 filters columns, 8 pixels per iteration.
func (o *Ops) gaussVertSSE2(src, dst *image.Mat) {
	defer o.s.Session("gauss.vert", o.curSpan()).End()
	a := gaussArgs{src: src.U8Pix, dst: dst.U8Pix, w: src.Width, h: src.Height}
	a.zero = o.s.SetzeroSi128()
	for k := range a.wv {
		a.wv[k] = o.s.Set1Epi16(int16(GaussKernel7[k]))
	}
	a.half = o.s.Set1Epi16(1 << (gaussShift - 1))
	parRows(o, src.Height, a, gaussVertSSE2Row, gaussVertSSE2RowLanes)
}

func gaussVertSSE2Row(b *Ops, a gaussArgs, y int) {
	w, h := a.w, a.h
	u := b.s
	var r [7][]uint8
	for k := 0; k < 7; k++ {
		ry := clampIdx(y+k-3, h)
		r[k] = a.src[ry*w : (ry+1)*w]
	}
	out := a.dst[y*w : (y+1)*w]
	edge := 0
	x := 0
	for ; x+8 <= w; x += 8 {
		v := u.UnpackloEpi8(u.LoadlEpi64U8(r[0][x:]), a.zero)
		acc := u.MulloEpi16(v, a.wv[0])
		for k := 1; k < 7; k++ {
			v = u.UnpackloEpi8(u.LoadlEpi64U8(r[k][x:]), a.zero)
			acc = u.AddEpi16(acc, u.MulloEpi16(v, a.wv[k]))
		}
		res := u.SrliEpi16(u.AddEpi16(acc, a.half), gaussShift)
		u.StorelEpi64U8(out[x:], u.PackusEpi16(res, res))
		u.Overhead(2, 1, 0)
	}
	for ; x < w; x++ {
		out[x] = gaussPixelV(a.src, w, h, x, y)
		edge++
	}
	b.scalarEdgeCost(uint64(edge))
}
