package cv

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
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
	gx := o.sobelPlane(w, h)
	defer par.PutMat(gx)
	gy := o.sobelPlane(w, h)
	defer par.PutMat(gy)
	if err := o.SobelFilter(src, gx, 1, 0); err != nil {
		return err
	}
	if err := o.SobelFilter(src, gy, 0, 1); err != nil {
		return err
	}
	o.cannyMagNMS(gx, gy, nms, lowThresh, highThresh)
	return nil
}

// cannyMagNMS runs stages 2 and 3 on full gradient planes, writing every
// marker of nms.
func (o *Ops) cannyMagNMS(gx, gy, nms *image.Mat, lowThresh, highThresh int16) {
	w, h := gx.Width, gx.Height

	// Stage 2: L1 magnitude (saturating), the same scalar arithmetic on
	// every path. Element-wise, so it bands freely; it writes every
	// element.
	mag := par.GetMatForOverwrite(w, h, image.S16)
	defer par.PutMat(mag)
	parFlat(o, w*h, cannyMagArgs{gx.S16Pix, gy.S16Pix, mag.S16Pix}, cannyMagChunk, nil)

	// Stage 3: non-maximum suppression. Direction is quantized to
	// horizontal / vertical / the two diagonals using the |gy| vs |gx|
	// ratio with the classic tan(22.5 deg) ~ 13/32 fixed-point test.
	// Each output row reads only its own and adjacent magnitude rows, all
	// read-only by now, so the stage row-bands with one halo row each way.
	parRows(o, h, cannyNMSArgs{
		gx: gx.S16Pix, gy: gy.S16Pix, mag: mag.S16Pix, nms: nms.U8Pix,
		w: w, h: h, low: lowThresh, high: highThresh,
	}, cannyNMSRow, nil)
}

// hystStacks keeps the hysteresis BFS worklists between calls (staged and
// fused alike): a stack grows to the image's edge population once, then
// steady-state calls run allocation-free. A GC empties a sync.Pool, after
// which a 5 Mpx stack would regrow by repeated append; this freelist keeps
// every stack it is given, as many as calls ever ran at once.
var hystStacks struct {
	mu   sync.Mutex
	free [][]int
}

// getHystStack takes a worklist from hystStacks, or a new one.
func getHystStack() []int {
	hystStacks.mu.Lock()
	defer hystStacks.mu.Unlock()
	if n := len(hystStacks.free); n > 0 {
		s := hystStacks.free[n-1]
		hystStacks.free = hystStacks.free[:n-1]
		return s[:0]
	}
	return make([]int, 0, 1024)
}

// putHystStack returns a worklist to hystStacks.
func putHystStack(s []int) {
	hystStacks.mu.Lock()
	hystStacks.free = append(hystStacks.free, s)
	hystStacks.mu.Unlock()
}

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
//
// The seed scan reads the marker plane a word of eight markers at a time
// and passes over words with no strong marker (no byte with bit 1 set,
// which a 2 has and a 0 or a 1 lacks), so most of a sparse plane costs
// one load and one test per eight pixels. A pixel whose eight neighbours
// all lie in the plane and on its rows takes them without the edge tests.
func hysteresis(nms, dst []uint8, w, h int) (visits int) {
	n := w * h
	nms, dst = nms[:n], dst[:n]
	clear(dst)
	stack := getHystStack()
	i := 0
	for ; i+8 <= n; i += 8 {
		strong := binary.LittleEndian.Uint64(nms[i:]) & 0x0202020202020202
		for ; strong != 0; strong &= strong - 1 {
			j := i + bits.TrailingZeros64(strong)/8
			if nms[j] == 2 {
				stack = append(stack, j)
				dst[j] = 255
			}
		}
	}
	for ; i < n; i++ {
		if nms[i] == 2 {
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
		if x > 0 && x < w-1 && i > w && i < n-w-1 {
			visits += len(neighbors)
			for _, nb := range neighbors {
				if j := i + nb.d; nms[j] == 1 && dst[j] == 0 {
					dst[j] = 255
					stack = append(stack, j)
				}
			}
			continue
		}
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
	putHystStack(stack)
	return visits
}

type cannyMagArgs struct {
	gx, gy, mag []int16
}

// mag16 is the saturating L1 magnitude |gx|+|gy| of the NEON and SSE2
// paths (two saturating absolutes, one saturating add), computed once in
// int32: the exact sum is at most 2^16, so one clamp at 2^15-1 gives what
// the three saturating steps give.
func mag16(gx, gy int16) int32 {
	x, y := int32(gx), int32(gy)
	return min((x^x>>31)-x>>31+(y^y>>31)-y>>31, math.MaxInt16)
}

func cannyMagChunk(b *Ops, a cannyMagArgs, lo, hi int) {
	gx := a.gx[lo:hi]
	gy, mag := a.gy[lo:hi][:len(gx)], a.mag[lo:hi][:len(gx)]
	for i, x := range gx {
		mag[i] = int16(mag16(x, gy[i]))
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
	out := a.nms[y*w : (y+1)*w]
	clear(out)
	if y >= 1 && y < a.h-1 {
		// The row and its neighbours, each sliced to the output row's
		// length so the loop below indexes them without bounds checks.
		mr := (y - a.magLo) * w
		up, mid, down := a.mag[mr-w:mr], a.mag[mr:mr+w], a.mag[mr+w:mr+2*w]
		gr := (y - a.gLo) * w
		gxr, gyr := a.gx[gr:gr+w], a.gy[gr:gr+w]
		up, mid, down, gxr, gyr = up[:len(out)], mid[:len(out)], down[:len(out)], gxr[:len(out)], gyr[:len(out)]
		low, high := a.low, a.high
		for r := 2; r < len(out); r++ {
			l, x := r-2, r-1 // the pixel is x, between columns l and r
			m := mid[x]
			if m < low {
				continue
			}
			gx, gy := gxr[x], gyr[x]
			ax := int32(sat.AbsInt16(gx))
			ay := int32(sat.AbsInt16(gy))
			var m1, m2 int16
			switch {
			case ay*32 <= ax*13:
				// Near-horizontal gradient: compare left/right.
				m1, m2 = mid[l], mid[r]
			case ax*32 <= ay*13:
				// Near-vertical gradient: compare up/down.
				m1, m2 = up[x], down[x]
			case (gx > 0) == (gy > 0):
				// 45-degree gradient.
				m1, m2 = up[l], down[r]
			default:
				// 135-degree gradient.
				m1, m2 = up[r], down[l]
			}
			// Strict on the first neighbour, non-strict on the second
			// (OpenCV's tie-break), so plateau edges stay one pixel wide.
			if m > m1 && m >= m2 {
				if m >= high {
					out[x] = 2
				} else {
					out[x] = 1
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
