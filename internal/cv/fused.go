package cv

// This file implements cache-blocked stage fusion for the multi-stage
// pipelines (Canny, DetectEdges). Instead of materializing each stage's
// full intermediate plane before the next stage starts — five plane-sized
// round trips through DRAM for Canny — the fused path streams the whole
// pipeline through horizontal strips sized to the modeled cache hierarchy.
// Intermediates live in pooled rolling windows (fuse.Strip) holding only
// the strip plus each stage's vertical halo; a window's live rows are
// carried across strips by fuse.Strip.Slide.
//
// A fused call is one parallel section, band-major: runBands splits the
// output rows into bands (par.Span) and each band sweeps its own strips
// through its own windows (fuse.Geometry.Interval), so no stage of any
// strip waits at a barrier. A band recomputes the seam rows its stencils
// share with its neighbours — two rows for Canny, one plus the combine's
// chunk halo for DetectEdges — which would change the recorded
// instruction stream and the fault schedule. So only a sweep nothing
// observes bands: untraced, with no fault injector (sweepBands). A traced
// or fault-injected call sweeps the plane as one band, computing every
// intermediate row exactly once, and numbers each stage of each strip as
// its own pass (sweepPass), as the staged path numbers its passes.
//
// The fused path reuses the staged kernels' row and chunk bodies
// unchanged — the sobelArgs/cannyNMSArgs offsets translate plane rows to
// window rows — so the one-band sweep's recorded dynamic instruction
// stream is bit-identical to the staged path's: the same rows run through
// the same bodies, only grouped differently in time. The halo-carry
// copies in Slide are bookkeeping, not modeled work, and record nothing.
//
// The combine stage of DetectEdges is chunk-parallel with a vector/tail
// split at flatQuantum boundaries; to keep its instruction stream
// identical the fused sweep only releases combine work in whole
// flatQuantum-aligned spans of the plane-linear index (except the final
// partial span at the plane's end), exactly the chunk grid the staged
// parFlat walks. A band owns the chunks that start in its rows.

import (
	"fmt"

	"simdstudy/internal/cache"
	"simdstudy/internal/fuse"
	"simdstudy/internal/image"
	"simdstudy/internal/obs"
	"simdstudy/internal/par"
	"simdstudy/internal/vec"
)

// FuseConfig selects cache-blocked stage fusion for the multi-stage
// pipelines. Zero value: fusion off, staged execution.
type FuseConfig struct {
	// Enabled routes Canny and DetectEdges through the fused sweep.
	Enabled bool
	// StripRows fixes the strip height; 0 sizes strips automatically so
	// the rolling windows fit half the last modeled cache level.
	StripRows int
	// Caches is the modeled hierarchy used by automatic strip sizing,
	// typically a platform descriptor's Caches (Table I). nil falls back
	// to a 256 KiB budget.
	Caches []cache.Config
}

// Signature renders the configuration as a stable string for content
// keys. Fused and staged execution are byte-identical by construction
// (the fusion tests assert it), but the memoization layer still keys on
// the full parameter set — a signature mismatch costing a recompute is
// cheap; a stale assumption serving wrong bytes is not.
func (f FuseConfig) Signature() string {
	if !f.Enabled {
		return "fuse=off"
	}
	s := fmt.Sprintf("fuse=on,strip=%d", f.StripRows)
	for _, c := range f.Caches {
		s += fmt.Sprintf(",%s:%d/%d/%d", c.Name, c.SizeBytes, c.LineBytes, c.Ways)
	}
	return s
}

// SetFuse configures stage fusion and invalidates the cached strip
// geometries.
func (o *Ops) SetFuse(cfg FuseConfig) {
	o.fuse = cfg
	o.fusedGeoms = o.fusedGeoms[:0]
}

// Fuse returns the current fusion configuration.
func (o *Ops) Fuse() FuseConfig { return o.fuse }

// fusedGeom caches one planned strip geometry per (kernel, shape) so
// steady-state fused calls stay allocation-free.
type fusedGeom struct {
	kernel string
	w, h   int
	g      fuse.Geometry
}

// Stage indices of the fused pipeline plans. Canny and DetectEdges share
// the four Sobel stages; stage 4 is Canny's magnitude (feeding NMS) or
// DetectEdges' threshold combine.
const (
	fsDiffH   = 0 // src --diffH--> t1
	fsSmoothV = 1 // t1 --smoothV--> gx
	fsSmoothH = 2 // src --smoothH--> t2
	fsDiffV   = 3 // t2 --diffV--> gy
	fsMag     = 4 // |gx|+|gy| -> mag
	fsNMS     = 5 // Canny only: non-maximum suppression -> marker plane
	fsCombine = 4 // DetectEdges only: |gx|+|gy| > thresh -> dst
)

// cannyFusePlan declares Canny's stage graph up to the NMS marker plane.
// Hysteresis is a global traversal and runs unfused after the sweep.
func cannyFusePlan() fuse.Plan {
	return fuse.Plan{
		Name: "canny",
		Stages: []fuse.Stage{
			{Name: "diffH", Inputs: []fuse.Input{{Stage: fuse.External}}, Elem: 2},
			{Name: "smoothV", Inputs: []fuse.Input{{Stage: fsDiffH, Halo: 1}}, Elem: 2},
			{Name: "smoothH", Inputs: []fuse.Input{{Stage: fuse.External}}, Elem: 2},
			{Name: "diffV", Inputs: []fuse.Input{{Stage: fsSmoothH, Halo: 1}}, Elem: 2},
			{Name: "mag", Inputs: []fuse.Input{{Stage: fsSmoothV}, {Stage: fsDiffV}}, Elem: 2},
			{Name: "nms", Inputs: []fuse.Input{{Stage: fsMag, Halo: 1}, {Stage: fsSmoothV}, {Stage: fsDiffV}}, Elem: 1, Full: true},
		},
	}
}

// edgesFusePlan declares DetectEdges' stage graph. The combine stage is
// released in flatQuantum-aligned element spans, so a span's last chunk
// can read gradient rows up to ceil(flatQuantum/w)-1 past the span's
// first row — expressed here as a vertical halo on the gradient inputs.
func edgesFusePlan(w int) fuse.Plan {
	hc := (flatQuantum + w - 1) / w
	return fuse.Plan{
		Name: "edges",
		Stages: []fuse.Stage{
			{Name: "diffH", Inputs: []fuse.Input{{Stage: fuse.External}}, Elem: 2},
			{Name: "smoothV", Inputs: []fuse.Input{{Stage: fsDiffH, Halo: 1}}, Elem: 2},
			{Name: "smoothH", Inputs: []fuse.Input{{Stage: fuse.External}}, Elem: 2},
			{Name: "diffV", Inputs: []fuse.Input{{Stage: fsSmoothH, Halo: 1}}, Elem: 2},
			{Name: "combine", Inputs: []fuse.Input{{Stage: fsSmoothV, Halo: hc}, {Stage: fsDiffV, Halo: hc}}, Elem: 1, Full: true},
		},
	}
}

// CannyFusePlan exposes the fused Canny stage graph (up to the NMS marker
// plane) for cost modeling — internal/timing replays the same strip
// geometry through the cache simulator.
func CannyFusePlan() fuse.Plan { return cannyFusePlan() }

// EdgesFusePlan exposes the fused DetectEdges stage graph for width w.
func EdgesFusePlan(w int) fuse.Plan { return edgesFusePlan(w) }

// fusedGeometry returns the whole-plane strip geometry for kernel at
// w x h, planning and caching it on first use; a band derives its own
// with Interval. The returned pointer is valid until the
// next SetFuse or a different-shape call appends to the cache.
func (o *Ops) fusedGeometry(kernel string, w, h int) (*fuse.Geometry, error) {
	for i := range o.fusedGeoms {
		fg := &o.fusedGeoms[i]
		if fg.kernel == kernel && fg.w == w && fg.h == h {
			return &fg.g, nil
		}
	}
	var p fuse.Plan
	switch kernel {
	case "Canny":
		p = cannyFusePlan()
	default:
		p = edgesFusePlan(w)
	}
	s := o.fuse.StripRows
	if s <= 0 {
		s = p.AutoStripRows(h, w, o.fuse.Caches)
	}
	if s > h {
		s = h
	}
	if s < 1 {
		s = 1
	}
	g, err := p.Geometry(h, s)
	if err != nil {
		return nil, err
	}
	o.fusedGeoms = append(o.fusedGeoms, fusedGeom{kernel: kernel, w: w, h: h, g: g})
	return &o.fusedGeoms[len(o.fusedGeoms)-1].g, nil
}

// fusedBytesSaved records how many intermediate-plane bytes the fused
// sweep avoided: the staged path's full S16 scratch planes minus the
// rolling windows actually allocated, summed over the sweep's bands.
func (o *Ops) fusedBytesSaved(kernel string, g *fuse.Geometry, w, stagedPlanes int) {
	if o.Obs == nil {
		return
	}
	winRows := 0
	nb := o.sweepBands(g.H)
	for i := 0; i < nb; i++ {
		y0, y1 := par.Span(i, nb, g.H)
		for _, c := range bandGeometry(g, y0, y1).Cap {
			winRows += c
		}
	}
	saved := stagedPlanes*2*w*g.H - 2*w*winRows
	if saved <= 0 {
		return
	}
	o.Obs.Counter("fused_plane_bytes_saved_total",
		obs.L("kernel", kernel), obs.L("isa", o.isa.String())).Add(uint64(saved))
}

// fusedSession opens the unit session a fused sweep on o's path records
// under, nil on the scalar path; the caller ends it.
func (o *Ops) fusedSession(name string) *obs.Span {
	switch o.path() {
	case ISANEON:
		return o.n.Session(name, o.curSpan())
	case ISASSE2:
		return o.s.Session(name, o.curSpan())
	}
	return nil
}

// fusedSobel is the four Sobel stages both fused pipelines open with: the
// row bodies o's path selects, each with its lane twin, and the SSE2
// horizontal passes' hoisted unpack constants. Like the staged pass
// wrappers, selecting the SSE2 stages records those two SetzeroSi128.
type fusedSobel struct {
	diffH, smoothV, smoothH, diffV                     func(*Ops, sobelArgs, int)
	diffHLanes, smoothVLanes, smoothHLanes, diffVLanes *twins[func(*Ops, sobelArgs, int)]
	zeroDiffH, zeroSmoothH                             vec.V128
}

func (o *Ops) fusedSobel() fusedSobel {
	switch o.path() {
	case ISANEON:
		return fusedSobel{
			diffH: sobelDiffHNEONRow, smoothV: sobelSmoothVNEONRow,
			smoothH: sobelSmoothHNEONRow, diffV: sobelDiffVNEONRow,
			diffHLanes: sobelDiffHNEONRowLanes, smoothVLanes: sobelSmoothVNEONRowLanes,
			smoothHLanes: sobelSmoothHNEONRowLanes, diffVLanes: sobelDiffVNEONRowLanes,
		}
	case ISASSE2:
		return fusedSobel{
			diffH: sobelDiffHSSE2Row, smoothV: sobelSmoothVSSE2Row,
			smoothH: sobelSmoothHSSE2Row, diffV: sobelDiffVSSE2Row,
			diffHLanes: sobelDiffHSSE2RowLanes, smoothVLanes: sobelSmoothVSSE2RowLanes,
			smoothHLanes: sobelSmoothHSSE2RowLanes, diffVLanes: sobelDiffVSSE2RowLanes,
			zeroDiffH: o.s.SetzeroSi128(), zeroSmoothH: o.s.SetzeroSi128(),
		}
	}
	return fusedSobel{
		diffH: sobelDiffHScalarRow, smoothV: sobelSmoothVScalarRow,
		smoothH: sobelSmoothHScalarRow, diffV: sobelDiffVScalarRow,
	}
}

// sobelWindows are one band's rolling windows for the four Sobel stages,
// on planes from the par recycler.
type sobelWindows struct {
	t1, gx, t2, gy fuse.Strip[int16]
	planes         [4]*image.Mat
}

// get binds the windows to planes sized by g's capacities, taken for b's
// Sobel stores (sobelPlane): a stage reads only window rows a stage before
// it produced.
func (sw *sobelWindows) get(b *Ops, w int, g *fuse.Geometry) {
	for i, s := range [...]*fuse.Strip[int16]{fsDiffH: &sw.t1, fsSmoothV: &sw.gx, fsSmoothH: &sw.t2, fsDiffV: &sw.gy} {
		m := b.sobelPlane(w, g.Cap[i])
		sw.planes[i] = m
		s.Bind(m.S16Pix, w, g.Cap[i])
	}
}

// put returns the windows' planes to the recycler.
func (sw *sobelWindows) put() {
	for _, m := range sw.planes {
		par.PutMat(m)
	}
}

// strip advances the four Sobel stages through strip k of g on b, each
// stage one pass of the sweep o opened.
func (st *fusedSobel) strip(o, b *Ops, g *fuse.Geometry, k int, src *image.Mat, win *sobelWindows) {
	w, h := src.Width, src.Height
	win.t1.Slide(g.Keep(fsDiffH, k))
	if y0, y1 := g.StageRows(fsDiffH, k); y1 > y0 {
		win.t1.Produce(y1 - 1)
		sweepRows(o, b, y0, y1, sobelArgs{
			in8: src.U8Pix, out: win.t1.Buf(), w: w, h: h,
			outLo: win.t1.Lo(), zero: st.zeroDiffH,
		}, st.diffH, st.diffHLanes)
	}
	win.gx.Slide(g.Keep(fsSmoothV, k))
	if y0, y1 := g.StageRows(fsSmoothV, k); y1 > y0 {
		win.gx.Produce(y1 - 1)
		sweepRows(o, b, y0, y1, sobelArgs{
			in16: win.t1.Buf(), out: win.gx.Buf(), w: w, h: h,
			inLo: win.t1.Lo(), outLo: win.gx.Lo(),
		}, st.smoothV, st.smoothVLanes)
	}
	win.t2.Slide(g.Keep(fsSmoothH, k))
	if y0, y1 := g.StageRows(fsSmoothH, k); y1 > y0 {
		win.t2.Produce(y1 - 1)
		sweepRows(o, b, y0, y1, sobelArgs{
			in8: src.U8Pix, out: win.t2.Buf(), w: w, h: h,
			outLo: win.t2.Lo(), zero: st.zeroSmoothH,
		}, st.smoothH, st.smoothHLanes)
	}
	win.gy.Slide(g.Keep(fsDiffV, k))
	if y0, y1 := g.StageRows(fsDiffV, k); y1 > y0 {
		win.gy.Produce(y1 - 1)
		sweepRows(o, b, y0, y1, sobelArgs{
			in16: win.t2.Buf(), out: win.gy.Buf(), w: w, h: h,
			inLo: win.t2.Lo(), outLo: win.gy.Lo(),
		}, st.diffV, st.diffVLanes)
	}
	if win.gx.Lo() != win.gy.Lo() {
		panic("cv: fused gradient windows out of step")
	}
}

// bandGeometry is g restricted to output rows [y0, y1), or g itself for a
// one-band sweep.
func bandGeometry(g *fuse.Geometry, y0, y1 int) *fuse.Geometry {
	if y0 == g.Y0 && y1 == g.Y1 {
		return g
	}
	bg := g.Interval(y0, y1)
	return &bg
}

// cannySweep is one fused Canny call as each of its bands sees it.
type cannySweep struct {
	o         *Ops // the Ops that opened the sweep
	g         *fuse.Geometry
	src, nms  *image.Mat
	low, high int16
	sobel     fusedSobel
}

// cannyFused runs Canny as one fused sweep up to the NMS marker plane —
// the four Sobel passes, the magnitude stage and NMS advancing together
// strip by strip, the S16 intermediates confined to rolling windows —
// then the shared hysteresis over the whole marker plane. The staged
// path's gx/gy/mag planes and two Sobel scratch planes never materialize.
// nms receives every marker (0 none, 1 weak, 2 strong); a guarded call
// spot-checks it.
func (o *Ops) cannyFused(src, nms, dst *image.Mat, lowThresh, highThresh int16) error {
	w, h := src.Width, src.Height
	g, err := o.fusedGeometry("Canny", w, h)
	if err != nil {
		return err
	}
	defer o.fusedSession("canny.fused").End()
	runBands(o, units[cannySweep]{band: cannyBand, n: h}, cannySweep{
		o: o, g: g, src: src, nms: nms, low: lowThresh, high: highThresh, sobel: o.fusedSobel(),
	})
	o.cannyHysteresis(nms.U8Pix, dst.U8Pix, w, h)
	// Staged Canny materializes five full S16 planes: the two Sobel
	// scratch planes plus gx, gy and mag.
	o.fusedBytesSaved("Canny", g, w, 5)
	return nil
}

// cannyBand sweeps fused Canny's output rows [y0, y1) on b, writing those
// rows of the marker plane.
func cannyBand(b *Ops, a cannySweep, y0, y1 int) {
	g := bandGeometry(a.g, y0, y1)
	w, h := a.src.Width, a.src.Height
	var win sobelWindows
	win.get(b, w, g)
	defer win.put()
	mag := par.GetMatForOverwrite(w, g.Cap[fsMag], image.S16)
	defer par.PutMat(mag)
	var magW fuse.Strip[int16]
	magW.Bind(mag.S16Pix, w, g.Cap[fsMag])
	for k := 0; k < g.Strips; k++ {
		a.sobel.strip(a.o, b, g, k, a.src, &win)
		magW.Slide(g.Keep(fsMag, k))
		if r0, r1 := g.StageRows(fsMag, k); r1 > r0 {
			magW.Produce(r1 - 1)
			// Element-wise with a linear cost model, so the strip-local
			// chunk grid records the same totals as the staged one.
			sweepFlat(a.o, b, 0, (r1-r0)*w, cannyMagArgs{
				gx:  win.gx.Buf()[(r0-win.gx.Lo())*w:],
				gy:  win.gy.Buf()[(r0-win.gy.Lo())*w:],
				mag: magW.Buf()[(r0-magW.Lo())*w:],
			}, cannyMagChunk, nil)
		}
		if r0, r1 := g.StageRows(fsNMS, k); r1 > r0 {
			sweepRows(a.o, b, r0, r1, cannyNMSArgs{
				gx: win.gx.Buf(), gy: win.gy.Buf(), mag: magW.Buf(), nms: a.nms.U8Pix,
				w: w, h: h, magLo: magW.Lo(), gLo: win.gx.Lo(),
				low: a.low, high: a.high,
			}, cannyNMSRow, nil)
		}
	}
}

// edgesSweep is one fused DetectEdges call as each of its bands sees it.
type edgesSweep struct {
	o            *Ops // the Ops that opened the sweep
	g            *fuse.Geometry
	src, dst     *image.Mat
	thresh       int16
	vthresh      vec.V128
	sobel        fusedSobel
	combine      func(*Ops, magThreshArgs, int, int)
	combineLanes *twins[func(*Ops, magThreshArgs, int, int)]
}

// edgesFused runs the DetectEdges pipeline as one fused sweep. The
// combine stage writes dst directly; it advances in flatQuantum-aligned
// element spans so its vector/tail chunk split matches the staged
// parFlat grid exactly.
func (o *Ops) edgesFused(src, dst *image.Mat, thresh int16) error {
	w, h := src.Width, src.Height
	g, err := o.fusedGeometry("DetectEdges", w, h)
	if err != nil {
		return err
	}
	defer o.fusedSession("edges.fused").End()
	a := edgesSweep{o: o, g: g, src: src, dst: dst, thresh: thresh,
		sobel: o.fusedSobel(), combine: magThreshScalarChunk}
	switch o.path() {
	case ISANEON:
		a.combine, a.combineLanes = magThreshNEONChunk, magThreshNEONChunkLanes
		a.vthresh = o.n.VdupqNS16(thresh)
	case ISASSE2:
		a.combine, a.combineLanes = magThreshSSE2Chunk, magThreshSSE2ChunkLanes
		a.vthresh = o.s.Set1Epi16(thresh)
	}
	runBands(o, units[edgesSweep]{band: edgesBand, n: h}, a)
	// Staged DetectEdges materializes four full S16 planes: the two Sobel
	// scratch planes plus gx and gy.
	o.fusedBytesSaved("DetectEdges", g, w, 4)
	return nil
}

// edgesBand sweeps DetectEdges' output rows [y0, y1) on b. The band owns
// the staged chunk grid's chunks that start in its rows; its last one may
// reach into the rows below y1, whose gradients the band's lead computes.
func edgesBand(b *Ops, a edgesSweep, y0, y1 int) {
	w := a.src.Width
	n := w * a.src.Height
	c0 := min(n, (y0*w+flatQuantum-1)/flatQuantum*flatQuantum)
	c1 := min(n, (y1*w+flatQuantum-1)/flatQuantum*flatQuantum)
	if c0 >= c1 {
		return // no chunk starts here: the band above combines these rows
	}
	g := bandGeometry(a.g, y0, y1)
	var win sobelWindows
	win.get(b, w, g)
	defer win.put()
	done := c0 // combined plane-linear elements so far
	for k := 0; k < g.Strips; k++ {
		a.sobel.strip(a.o, b, g, k, a.src, &win)
		// Combine everything the gradients now cover, rounded down to the
		// staged chunk grid; the final strip takes the band's last chunk.
		e := (g.Frontier(fsCombine, k) + 1) * w / flatQuantum * flatQuantum
		if k == g.Strips-1 {
			e = c1
		}
		if e = min(e, c1); e > done {
			base := win.gx.Lo() * w
			sweepFlat(a.o, b, done-base, e-base, magThreshArgs{
				gx: win.gx.Buf(), gy: win.gy.Buf(), d: a.dst.U8Pix[base:],
				thresh: a.thresh, vthresh: a.vthresh,
			}, a.combine, a.combineLanes)
			done = e
		}
	}
}
