package cv

import (
	"context"
	"fmt"
	"sync"

	"simdstudy/internal/image"
	"simdstudy/internal/par"
	"simdstudy/internal/sat"
)

// Canny performs Canny edge detection: Sobel gradients, L1 gradient
// magnitude, non-maximum suppression along the quantized gradient
// direction, double thresholding, and hysteresis linking (8-connected BFS
// from strong edges through weak ones).
//
// The paper's related work reports only a 1.6x NEON gain for Canny — the
// smallest of the Tegra study's kernels — and this implementation shows
// why: the gradient and magnitude stages vectorize (they reuse this
// library's SIMD Sobel and saturating-arithmetic paths), but non-maximum
// suppression is direction-dependent per pixel and hysteresis is a
// worklist traversal, both inherently serial. Amdahl's law caps the
// whole-kernel speedup regardless of how fast the vector stages run.
func (o *Ops) Canny(src, dst *image.Mat, lowThresh, highThresh int16) error {
	return o.CannyCtx(nil, src, dst, lowThresh, highThresh)
}

// CannyCtx is Canny with row-granular cancellation through the four Sobel
// passes and the NMS pass (the flat magnitude stage and the hysteresis
// traversal check at block/entry granularity only). Staged and fused
// execution tick the same 5 x height row budget, plus the seam rows of a
// band-major fused sweep.
func (o *Ops) CannyCtx(ctx context.Context, src, dst *image.Mat, lowThresh, highThresh int16) error {
	return o.call(ctx, "Canny", 5*dst.Height, func() error {
		if err := requireKind(src, image.U8, "Canny src"); err != nil {
			return err
		}
		if err := requireKind(dst, image.U8, "Canny dst"); err != nil {
			return err
		}
		if err := sameShape(src, dst); err != nil {
			return err
		}
		if lowThresh < 0 || highThresh < lowThresh {
			return fmt.Errorf("cv: Canny thresholds must satisfy 0 <= low <= high, got %d/%d",
				lowThresh, highThresh)
		}
		if !o.fuse.Enabled {
			// Staged Canny has no whole-pipeline referee: its nested
			// SobelFilter calls carry their own, and their verdicts settle
			// Canny's breaker admission.
			return o.cannyStaged(src, dst, lowThresh, highThresh)
		}
		nms := par.GetMatForOverwrite(src.Width, src.Height, image.U8)
		defer par.PutMat(nms)
		fused := func() error { return o.cannyFused(src, nms, dst, lowThresh, highThresh) }
		if !o.UseOptimized() {
			return fused()
		}
		// The spot-check compares sampled rows of the NMS marker plane the
		// sweep built against row windows of the staged scalar pipeline up
		// to NMS. An audit and a fallback take the final output from the
		// whole staged scalar pipeline, since hysteresis is global.
		return o.guardedCheck(gkCanny, src.Height, dst, nms, fused,
			func(ref *Ops, r0, r1 int, d *image.Mat) error {
				return ref.cannyStaged(src.Rows(r0, r1), d, lowThresh, highThresh)
			},
			func(ref *Ops, r0, r1 int, d *image.Mat) error {
				return ref.cannyStagedNMS(src.Rows(r0, r1), d, lowThresh, highThresh)
			})
	})
}

// cannyStaged is the unfused pipeline: each stage materializes its full
// intermediate plane before the next begins.
func (o *Ops) cannyStaged(src, dst *image.Mat, lowThresh, highThresh int16) error {
	nms := par.GetMatForOverwrite(src.Width, src.Height, image.U8)
	defer par.PutMat(nms)
	if err := o.cannyStagedNMS(src, nms, lowThresh, highThresh); err != nil {
		return err
	}
	o.cannyHysteresis(nms.U8Pix, dst.U8Pix, src.Width, src.Height)
	return nil
}

// cannyStagedNMS runs the staged pipeline up to the NMS marker plane
// (0 none, 1 weak, 2 strong). Split out so the gradient and magnitude
// planes go back to the pool, where a concurrent call can reuse them,
// before the serial hysteresis pass runs. Every marker is written.
func (o *Ops) cannyStagedNMS(src, nms *image.Mat, lowThresh, highThresh int16) error {
	w, h := src.Width, src.Height

	// Stage 1: gradients (SIMD-accelerated when enabled), on scratch
	// planes from the shared pool.
	gx := par.GetMat(w, h, image.S16)
	defer par.PutMat(gx)
	gy := par.GetMat(w, h, image.S16)
	defer par.PutMat(gy)
	if err := o.SobelFilter(src, gx, 1, 0); err != nil {
		return err
	}
	if err := o.SobelFilter(src, gy, 0, 1); err != nil {
		return err
	}

	// Stage 2: L1 magnitude (saturating), scalar or SIMD-equivalent
	// arithmetic — identical across paths. Element-wise, so it bands
	// freely.
	mag := par.GetMat(w, h, image.S16)
	defer par.PutMat(mag)
	n := w * h
	parFlat(o, n, cannyMagArgs{gx.S16Pix, gy.S16Pix, mag.S16Pix}, cannyMagChunk, nil)

	// Stage 3: non-maximum suppression. Direction is quantized to
	// horizontal / vertical / the two diagonals using the |gy| vs |gx|
	// ratio with the classic tan(22.5 deg) ~ 13/32 fixed-point test.
	// Each output row reads only its own and adjacent magnitude rows, all
	// read-only by now, so the stage row-bands with one halo row each way.
	parRows(o, h, cannyNMSArgs{
		gx: gx.S16Pix, gy: gy.S16Pix, mag: mag.S16Pix, nms: nms.U8Pix,
		w: w, h: h, low: lowThresh, high: highThresh,
	}, cannyNMSRow, nil)
	return nil
}

// hystStackPool recycles the hysteresis BFS worklist across calls (staged
// and fused alike): the stack grows to the image's edge population once,
// then steady-state calls run allocation-free.
var hystStackPool = sync.Pool{New: func() any {
	s := make([]int, 0, 1024)
	return &s
}}

// cannyHysteresis is the final Canny stage, shared by the staged and fused
// paths: zero the output, seed the BFS from strong pixels, and link weak
// pixels 8-connected to a strong component. It runs on the full nms plane
// after the sweep — the traversal is global, so it is the one stage fusion
// leaves unfused.
func (o *Ops) cannyHysteresis(nms, dst []uint8, w, h int) {
	visits := hysteresis(nms, dst, w, h)
	if o.T != nil {
		o.count(opHysteresis, uint64(3*visits))
		o.count(opHysteresisBr, uint64(visits))
	}
}

// hystNeighbor is one of a pixel's eight neighbours: its index offset and
// its column step.
type hystNeighbor struct{ d, dx int }

// hysteresis runs cannyHysteresis's traversal and returns how many
// neighbours it examined. A neighbour's column is the popped pixel's x
// plus its step, so a pop costs one division, not one per neighbour. A
// neighbour is examined when it lies in the plane and its column step
// stays on the row; at widths 1 and 2 every in-plane neighbour is, as the
// original wrap test (j%w against x, which there never differ by more
// than one) let them be.
func hysteresis(nms, dst []uint8, w, h int) (visits int) {
	n := w * h
	for i := range dst[:n] {
		dst[i] = 0
	}
	sp := hystStackPool.Get().(*[]int)
	stack := (*sp)[:0]
	for i, v := range nms[:n] {
		if v == 2 {
			stack = append(stack, i)
			dst[i] = 255
		}
	}
	neighbors := [8]hystNeighbor{{-w - 1, -1}, {-w, 0}, {-w + 1, 1}, {-1, -1}, {1, 1}, {w - 1, -1}, {w, 0}, {w + 1, 1}}
	narrow := w < 3
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		x := i % w
		left, right := narrow || x > 0, narrow || x < w-1
		for _, nb := range neighbors {
			if nb.dx < 0 && !left || nb.dx > 0 && !right {
				continue
			}
			j := i + nb.d
			if j < 0 || j >= n {
				continue
			}
			visits++
			if nms[j] == 1 && dst[j] == 0 {
				dst[j] = 255
				stack = append(stack, j)
			}
		}
	}
	*sp = stack
	hystStackPool.Put(sp)
	return visits
}

type cannyMagArgs struct {
	gx, gy, mag []int16
}

func cannyMagChunk(b *Ops, a cannyMagArgs, lo, hi int) {
	for i := lo; i < hi; i++ {
		a.mag[i] = sat.AddInt16(sat.AbsInt16(a.gx[i]), sat.AbsInt16(a.gy[i]))
	}
	if b.T != nil {
		n := uint64(hi - lo)
		b.count(opMag, 3*n)
		b.scalarOverhead(n)
	}
}

// cannyNMSArgs bundles the NMS stage. magLo and gLo are the plane rows at
// which the mag and gx/gy slices begin (zero on the staged path, the
// rolling windows' first live rows on the fused path); nms is always the
// full marker plane, whose row y the body writes whole.
type cannyNMSArgs struct {
	gx, gy, mag []int16
	nms         []uint8
	w, h        int
	magLo, gLo  int
	low, high   int16
}

func cannyNMSRow(b *Ops, a cannyNMSArgs, y int) {
	w := a.w
	clear(a.nms[y*w : (y+1)*w])
	if y >= 1 && y < a.h-1 {
		mr := (y - a.magLo) * w
		gr := (y - a.gLo) * w
		for x := 1; x < w-1; x++ {
			i := mr + x
			m := a.mag[i]
			if m < a.low {
				continue
			}
			ax := int32(sat.AbsInt16(a.gx[gr+x]))
			ay := int32(sat.AbsInt16(a.gy[gr+x]))
			var m1, m2 int16
			switch {
			case ay*32 <= ax*13:
				// Near-horizontal gradient: compare left/right.
				m1, m2 = a.mag[i-1], a.mag[i+1]
			case ax*32 <= ay*13:
				// Near-vertical gradient: compare up/down.
				m1, m2 = a.mag[i-w], a.mag[i+w]
			case (a.gx[gr+x] > 0) == (a.gy[gr+x] > 0):
				// 45-degree gradient.
				m1, m2 = a.mag[i-w-1], a.mag[i+w+1]
			default:
				// 135-degree gradient.
				m1, m2 = a.mag[i-w+1], a.mag[i+w-1]
			}
			// Strict on the first neighbour, non-strict on the second
			// (OpenCV's tie-break), so plateau edges stay one pixel wide.
			if m > m1 && m >= m2 {
				if m >= a.high {
					a.nms[y*w+x] = 2
				} else {
					a.nms[y*w+x] = 1
				}
			}
		}
	}
	// Cost is modeled per full-width row (border rows included), matching
	// the whole-image accounting of the serial implementation.
	if b.T != nil {
		b.count(opNmsCmpSel, uint64(8*w))
		b.count(opNmsBranch, uint64(2*w))
	}
}
