package image

import (
	"fmt"
	"math/bits"
	"sync"
)

// This file is the one synthetic-image generator. Pixel p of a plane (row
// major) is drawn from the p+1'th output of a xorshift64* stream, and a
// U8 pixel also carries a first-order noise chain through every earlier
// pixel. SynthesizeInto still fills any row band on its own:
//
//   - Jump-ahead. The xorshift64 step is linear over GF(2), so k steps are
//     one 64x64 bit-matrix product. xsPow holds the matrices of 2^i steps,
//     and a segment starting at pixel p reaches its start state in at most
//     64 matrix-vector products (xsJump).
//   - Seams. The noise chain prev' = (prev + n) / 2 cannot jump, but it is
//     a contraction: two chains fed the same n differ by |d'| <= ceil(|d|/2),
//     so the gap never widens and, once zero, stays zero. Every segment
//     after the first starts speculatively at prev = 0. When all bands are
//     done, stitch walks the seams in order and reruns each segment's head
//     from the true incoming prev beside the speculative chain, rewriting
//     pixels up to the first step where the chains agree; from there the
//     band's pixels and its recorded end value are already exact. A segment
//     the chains never agree within carries its true end value to the next
//     seam. Exactness is by construction; only the repair length (a few
//     dozen pixels in practice) depends on convergence.
//   - Two chains per band. Each band fills its rows as two halves advanced
//     in the same loop iteration, so two independent xorshift and
//     noise chains overlap. A one-band fill is therefore faster than a
//     plain loop too.
//   - Tables. A chain holds its noise value offset by noiseBias, so every
//     value it meets is a small non-negative index: the step per random
//     byte is one lookup in the seed's noise table, the halving one in
//     halfTab and the clamp one in clampTab, in place of a signed divide
//     and a two-sided clamp. The loop is bound by the instructions it
//     executes, not by the chains' latency, so fewer instructions per
//     pixel is what pays; its masked indexes carry no bounds checks.

// xsMul is the xorshift64* output multiplier.
const xsMul = 0x2545F4914F6CDD1D

// xsStep advances a xorshift64 state by one step.
func xsStep(s uint64) uint64 {
	s ^= s >> 12
	s ^= s << 25
	s ^= s >> 27
	return s
}

// xsPow[i] is the GF(2) matrix of 2^i xorshift64 steps, by column:
// xsPow[i][j] is where those steps take the state with only bit j set.
var (
	xsPowOnce sync.Once
	xsPow     [64][64]uint64
)

func initXSPow() {
	for j := range xsPow[0] {
		xsPow[0][j] = xsStep(1 << j)
	}
	for i := 1; i < len(xsPow); i++ {
		for j := range xsPow[i] {
			xsPow[i][j] = xsApply(&xsPow[i-1], xsPow[i-1][j])
		}
	}
}

// xsApply multiplies the bit vector s by the matrix m.
func xsApply(m *[64]uint64, s uint64) uint64 {
	var r uint64
	for ; s != 0; s &= s - 1 {
		r ^= m[bits.TrailingZeros64(s)]
	}
	return r
}

// xsJump returns the xorshift64 state k steps after s.
func xsJump(s, k uint64) uint64 {
	xsPowOnce.Do(initXSPow)
	for i := 0; k != 0; i, k = i+1, k>>1 {
		if k&1 != 0 {
			s = xsApply(&xsPow[i], s)
		}
	}
	return s
}

// Synthetic generates the i-th deterministic synthetic photograph at a
// resolution. Images combine a smooth illumination gradient, low-frequency
// texture, and hard edges, approximating the statistics of the paper's
// camera photographs. Distinct seeds give the 5 distinct images the paper
// cycles through.
func Synthetic(res Resolution, seed uint64) *Mat {
	m := NewMat(res.Width, res.Height, U8)
	SynthesizeInto(m, seed, 1, nil)
	return m
}

// SyntheticF32 generates a float-typed synthetic image with values spanning
// a range that exercises the saturating float-to-short conversion, including
// out-of-short-range magnitudes as OpenCV's filtering intermediates can
// produce.
func SyntheticF32(res Resolution, seed uint64) *Mat {
	m := NewMat(res.Width, res.Height, F32)
	SynthesizeInto(m, seed, 1, nil)
	return m
}

// SynthesizeInto overwrites m, a U8 or F32 plane, with the image Synthetic
// or SyntheticF32 returns for seed at m's size. It splits m's rows into
// the given number of bands, clamped to [1, m.Height], and hands run the
// band count n and the function that fills band i. run must call band(0)
// .. band(n-1) once each, in any order or concurrently, and return when
// all have finished; a nil run calls them in order on the caller. The
// bytes depend on neither bands nor run.
func SynthesizeInto(m *Mat, seed uint64, bands int, run func(n int, band func(i int))) {
	if m.Pixels() == 0 {
		return
	}
	n := min(max(bands, 1), m.Height)
	if run == nil {
		run = func(n int, band func(i int)) {
			for i := 0; i < n; i++ {
				band(i)
			}
		}
	}
	switch m.Kind {
	case U8:
		g := newU8Gen(m, seed, n)
		run(n, g.band)
		g.stitch()
	case F32:
		g := &f32Gen{pix: m.F32Pix, w: m.Width, h: m.Height, n: n,
			s0: newRNG(seed*0x85EBCA6B + 7).s}
		run(n, g.band)
	default:
		panic(fmt.Sprintf("image: no synthetic %v images", m.Kind))
	}
}

// segments returns band i of n's rows [lo, hi) of an h-row plane, split
// at mid into the two segments its chains fill; the second holds the odd
// row when there is one.
func segments(i, n, h int) (lo, mid, hi int) {
	lo, hi = i*h/n, (i+1)*h/n
	return lo, lo + (hi-lo)/2, hi
}

// chain is one segment's generator state: the xorshift64 state and the
// noise value of the pixel last drawn, offset by noiseBias.
type chain struct {
	s uint64
	p uint
}

// noiseBias offsets every noise value a chain holds or steps by. Noise
// values and steps lie within ±15, so offset ones lie in [17, 47].
const noiseBias = 32

// halfTab and clampTab are the chain's halving and clamp, on offset
// values. For P = prev+noiseBias and D = d+noiseBias, halfTab[P+D] is
// (prev+d)/2 + noiseBias, truncated toward zero as the chain's divide is;
// P+D lies in [34, 94]. clampTab[base + 2P] is base>>1 + prev clamped to
// [0, 255], the pixel of gradient sum base: the halving of base rides in
// the index, since (base+2P)>>1 is base>>1 + P. With base at most 254+382
// the index is at most 730. A row's vertical gradient term, below 255,
// folds into a per-row slice of the table (rowClamp), which the row's
// pixels index by column term plus 2P, below 382+94. Every index is masked
// to its table's length, which never changes one in range and lets the
// compiler drop the bounds checks.
var halfTab, clampTab = func() (half [128]uint8, clamp [1024]uint8) {
	for i := range half {
		half[i] = uint8((i-2*noiseBias)/2 + noiseBias)
	}
	for i := range clamp {
		clamp[i] = uint8(min(max(i>>1-noiseBias, 0), 255))
	}
	return half, clamp
}()

// u8Gen is one U8 fill: the per-image parameters every band reads, and
// the speculative noise value each segment ended on.
type u8Gen struct {
	pix      []uint8
	w, h, n  int
	gy       int
	rowScale int        // h * gy, the vertical gradient's divisor
	col      []uint16   // per-column term, at most 254+128
	noise    [256]uint8 // noise step per random byte, offset by noiseBias
	s0       uint64     // stream state before pixel 0
	ends     []uint     // ends[2i+j]: band i segment j's last noise value, offset
}

func newU8Gen(m *Mat, seed uint64, n int) *u8Gen {
	w := m.Width
	r := newRNG(seed*0x9E3779B9 + 1)
	// Random parameters for gradients and edge placement.
	gx := int(r.next()%5) + 1
	gy := int(r.next()%5) + 1
	edgePeriod := int(r.next()%97) + 32
	noiseAmp := int(r.next()%24) + 8
	g := &u8Gen{pix: m.U8Pix, w: w, h: m.Height, n: n, gy: gy, rowScale: m.Height * gy,
		col: make([]uint16, w), s0: r.s, ends: make([]uint, 2*n)}
	// Per-column term: the horizontal gradient plus 128 in columns on the
	// raised side of a hard vertical edge (every edgePeriod columns). The
	// pixel is (rowBase+col)/2, and for the non-negative sums here
	// (a+128)/2 == a/2+64, so folding the edge in before the halving is
	// exact.
	for x := range g.col {
		c := (x * gx * 255) / (w * gx)
		if (x/edgePeriod)%2 == 1 {
			c += 128
		}
		g.col[x] = uint16(c)
	}
	// Noise step per random byte b: b % noiseAmp - noiseAmp/2.
	for b := range g.noise {
		g.noise[b] = uint8(int(uint8(b)%uint8(noiseAmp)) - noiseAmp/2 + noiseBias)
	}
	return g
}

// rowBase is row y's vertical gradient term.
func (g *u8Gen) rowBase(y int) uint { return uint(y * g.gy * 255 / g.rowScale) }

// halve is the chain step from noise value p by noise step d, both
// offset: (prev+d)/2, offset.
func halve(p, d uint) uint { return uint(halfTab[(p+d)&127]) }

// pixel is the pixel of gradient sum base at offset noise value p.
func pixel(base, p uint) uint8 { return clampTab[(base+2*p)&1023] }

// rowClamp is clampTab for the rows of vertical gradient term base:
// rowClamp(base)[c+2p] is pixel(base+c, p) for a column term c.
func rowClamp(base uint) *[512]uint8 { return (*[512]uint8)(clampTab[base:]) }

// band fills band i, each segment's noise chain starting at zero.
func (g *u8Gen) band(i int) {
	lo, mid, hi := segments(i, g.n, g.h)
	a := chain{s: xsJump(g.s0, uint64(lo*g.w)), p: noiseBias}
	b := chain{s: xsJump(g.s0, uint64(mid*g.w)), p: noiseBias}
	for y := lo; y < mid; y++ {
		a, b = g.fillRows(y, mid-lo+y, a, b)
	}
	if odd := mid + (mid - lo); odd < hi {
		col := g.col
		row := g.pix[odd*len(col):][:len(col)]
		base := g.rowBase(odd)
		for x, c := range col {
			b.s = xsStep(b.s)
			b.p = halve(b.p, uint(g.noise[(b.s*xsMul)>>56]))
			row[x] = pixel(base+uint(c), b.p)
		}
	}
	g.ends[2*i], g.ends[2*i+1] = a.p, b.p
}

// fillRows fills row ya from chain a and row yb from chain b in one pass,
// the two chains' serial dependencies overlapping, and returns both
// chains advanced. The loop's live values fill Go's registers, so it
// keeps as few as it can: chains by value (no addresses), per-row clamp
// slices (no row bases), and a stack copy of the noise table, which it
// indexes from the stack pointer (no generator pointer).
func (g *u8Gen) fillRows(ya, yb int, a, b chain) (chain, chain) {
	col, noise := g.col, g.noise
	rowA := g.pix[ya*len(col):][:len(col)]
	rowB := g.pix[yb*len(col):][:len(col)]
	tabA, tabB := rowClamp(g.rowBase(ya)), rowClamp(g.rowBase(yb))
	sa, pa, sb, pb := a.s, a.p, b.s, b.p
	for x, c := range col {
		sa, sb = xsStep(sa), xsStep(sb)
		pa = halve(pa, uint(noise[(sa*xsMul)>>56]))
		pb = halve(pb, uint(noise[(sb*xsMul)>>56]))
		rowA[x] = tabA[(uint(c)+2*pa)&511]
		rowB[x] = tabB[(uint(c)+2*pb)&511]
	}
	return chain{sa, pa}, chain{sb, pb}
}

// stitch repairs every seam in order, carrying the true noise value from
// each segment's end into the next segment's head.
func (g *u8Gen) stitch() {
	prev := g.ends[0]
	for k := 1; k < len(g.ends); k++ {
		lo, mid, hi := segments(k/2, g.n, g.h)
		if k%2 == 1 {
			lo, mid = mid, hi
		}
		prev = g.repair(lo*g.w, mid*g.w, prev, g.ends[k])
	}
}

// repair reruns the segment of pixels [lo, hi) from the true incoming
// noise value in beside its speculative chain (started at zero, ended on
// specEnd), rewriting pixels until the two agree, and returns the true
// noise value at the segment's end. All three values are offset.
func (g *u8Gen) repair(lo, hi int, in, specEnd uint) uint {
	if lo == hi {
		return in
	}
	s := xsJump(g.s0, uint64(lo))
	spec, tru := uint(noiseBias), in
	for p := lo; p < hi; p++ {
		if spec == tru {
			return specEnd
		}
		s = xsStep(s)
		d := uint(g.noise[(s*xsMul)>>56])
		spec, tru = halve(spec, d), halve(tru, d)
		g.pix[p] = pixel(g.rowBase(p/g.w)+uint(g.col[p%g.w]), tru)
	}
	return tru
}

// f32Gen is one F32 fill: no chain crosses pixels, so bands only jump.
type f32Gen struct {
	pix     []float32
	w, h, n int
	s0      uint64
}

// f32Pixel maps one xorshift64* output to a pixel: mostly in-range
// pixel-like values, with a sprinkle of large magnitudes (~1/64 of pixels)
// to exercise saturation.
func f32Pixel(u uint64) float32 {
	if u%64 == 0 {
		return float32(int32(u >> 32)) // huge, either sign
	}
	return float32(int64(u%51200))/100.0 - 256.0 // [-256, 256)
}

// band fills band i's two segments in one pass, the second's odd row last.
func (g *f32Gen) band(i int) {
	lo, mid, hi := segments(i, g.n, g.h)
	outA := g.pix[lo*g.w : mid*g.w]
	outB := g.pix[mid*g.w : hi*g.w]
	sa, sb := xsJump(g.s0, uint64(lo*g.w)), xsJump(g.s0, uint64(mid*g.w))
	for k := range outA {
		sa, sb = xsStep(sa), xsStep(sb)
		outA[k] = f32Pixel(sa * xsMul)
		outB[k] = f32Pixel(sb * xsMul)
	}
	for k := len(outA); k < len(outB); k++ {
		sb = xsStep(sb)
		outB[k] = f32Pixel(sb * xsMul)
	}
}
