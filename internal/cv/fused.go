package cv

// This file implements cache-blocked stage fusion for the multi-stage
// pipelines (Canny, DetectEdges). Instead of materializing each stage's
// full intermediate plane before the next stage starts — five plane-sized
// round trips through DRAM for Canny — the fused path streams the whole
// pipeline through horizontal strips sized to the modeled cache hierarchy.
// Intermediates live in pooled rolling windows (fuse.Strip) holding only
// the strip plus each stage's vertical halo; a window's live rows are
// carried across strips by fuse.Strip.Slide, so every intermediate value
// is produced exactly once.
//
// The fused path reuses the staged kernels' row and chunk bodies
// unchanged — the sobelArgs/cannyNMSArgs offsets translate plane rows to
// window rows — so the recorded dynamic instruction streams are
// bit-identical to the staged path's: the same rows run through the same
// bodies, only grouped differently in time. The halo-carry copies in
// Slide are bookkeeping, not modeled work, and record nothing.
//
// The combine stage of DetectEdges is chunk-parallel with a vector/tail
// split at flatQuantum boundaries; to keep its instruction stream
// identical the fused sweep only releases combine work in whole
// flatQuantum-aligned spans of the plane-linear index (except the final
// partial span at the plane's end), exactly the chunk grid the staged
// parFlat walks.

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

// fusedGeometry returns the strip geometry for kernel at w x h, planning
// and caching it on first use. The returned pointer is valid until the
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
		// A strip pass bands only when it has MinRowsPerBand rows per
		// worker; below that every pass runs on one core. Floor automatic
		// strips there — more cache-resident, but serial, is the worse
		// trade. An explicit StripRows stays as given.
		if o.par.Workers > 1 {
			s = max(s, o.par.Workers*o.par.MinRowsPerBand)
		}
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
// rolling windows actually allocated.
func (o *Ops) fusedBytesSaved(kernel string, g *fuse.Geometry, w, h, stagedPlanes int) {
	if o.Obs == nil {
		return
	}
	winRows := 0
	for _, c := range g.Cap {
		winRows += c
	}
	saved := stagedPlanes*2*w*h - 2*w*winRows
	if saved <= 0 {
		return
	}
	o.Obs.Counter("fused_plane_bytes_saved_total",
		obs.L("kernel", kernel), obs.L("isa", o.isa.String())).Add(uint64(saved))
}

// cannyFused runs the Canny pipeline as a single strip-streamed sweep:
// the four Sobel passes, the magnitude stage and NMS advance together one
// strip at a time, with the S16 intermediates confined to rolling
// windows. The NMS marker plane is full-size (hysteresis walks it
// globally afterwards), so the staged path's gx/gy/mag planes and the two
// Sobel scratch planes never materialize.
func (o *Ops) cannyFused(src, dst *image.Mat, lowThresh, highThresh int16) error {
	w, h := src.Width, src.Height
	g, err := o.fusedGeometry("Canny", w, h)
	if err != nil {
		return err
	}

	t1 := par.GetMat(w, g.Cap[fsDiffH], image.S16)
	defer par.PutMat(t1)
	gx := par.GetMat(w, g.Cap[fsSmoothV], image.S16)
	defer par.PutMat(gx)
	t2 := par.GetMat(w, g.Cap[fsSmoothH], image.S16)
	defer par.PutMat(t2)
	gy := par.GetMat(w, g.Cap[fsDiffV], image.S16)
	defer par.PutMat(gy)
	mag := par.GetMat(w, g.Cap[fsMag], image.S16)
	defer par.PutMat(mag)
	nms := par.GetMat(w, h, image.U8) // zero-filled: 0 none, 1 weak, 2 strong
	defer par.PutMat(nms)

	var t1W, gxW, t2W, gyW, magW fuse.Strip[int16]
	t1W.Bind(t1.S16Pix, w, g.Cap[fsDiffH])
	gxW.Bind(gx.S16Pix, w, g.Cap[fsSmoothV])
	t2W.Bind(t2.S16Pix, w, g.Cap[fsSmoothH])
	gyW.Bind(gy.S16Pix, w, g.Cap[fsDiffV])
	magW.Bind(mag.S16Pix, w, g.Cap[fsMag])

	// Body selection, with each body's lane twin, and per-sweep hoists,
	// mirroring the staged pass wrappers: the SSE2 horizontal passes each
	// hoist one unpack constant, so the fused sweep records exactly two
	// SetzeroSi128 as well.
	diffHBody, smoothVBody, smoothHBody, diffVBody := sobelDiffHScalarRow,
		sobelSmoothVScalarRow, sobelSmoothHScalarRow, sobelDiffVScalarRow
	var diffHLanes, smoothVLanes, smoothHLanes, diffVLanes func(*Ops, sobelArgs, int)
	var zeroDiffH, zeroSmoothH vec.V128
	switch o.path() {
	case ISANEON:
		defer o.n.Session("canny.fused", o.curSpan()).End()
		diffHBody, smoothVBody = sobelDiffHNEONRow, sobelSmoothVNEONRow
		smoothHBody, diffVBody = sobelSmoothHNEONRow, sobelDiffVNEONRow
		diffHLanes, smoothVLanes = sobelDiffHNEONRowLanes, sobelSmoothVNEONRowLanes
		smoothHLanes, diffVLanes = sobelSmoothHNEONRowLanes, sobelDiffVNEONRowLanes
	case ISASSE2:
		defer o.s.Session("canny.fused", o.curSpan()).End()
		diffHBody, smoothVBody = sobelDiffHSSE2Row, sobelSmoothVSSE2Row
		smoothHBody, diffVBody = sobelSmoothHSSE2Row, sobelDiffVSSE2Row
		diffHLanes, smoothVLanes = sobelDiffHSSE2RowLanes, sobelSmoothVSSE2RowLanes
		smoothHLanes, diffVLanes = sobelSmoothHSSE2RowLanes, sobelDiffVSSE2RowLanes
		zeroDiffH = o.s.SetzeroSi128()
		zeroSmoothH = o.s.SetzeroSi128()
	}

	for k := 0; k < g.Strips; k++ {
		t1W.Slide(g.Keep(fsDiffH, k))
		if y0, y1 := g.StageRows(fsDiffH, k); y1 > y0 {
			t1W.Produce(y1 - 1)
			parRowsRange(o, y0, y1, sobelArgs{
				in8: src.U8Pix, out: t1W.Buf(), w: w, h: h,
				outLo: t1W.Lo(), zero: zeroDiffH,
			}, diffHBody, diffHLanes)
		}
		gxW.Slide(g.Keep(fsSmoothV, k))
		if y0, y1 := g.StageRows(fsSmoothV, k); y1 > y0 {
			gxW.Produce(y1 - 1)
			parRowsRange(o, y0, y1, sobelArgs{
				in16: t1W.Buf(), out: gxW.Buf(), w: w, h: h,
				inLo: t1W.Lo(), outLo: gxW.Lo(),
			}, smoothVBody, smoothVLanes)
		}
		t2W.Slide(g.Keep(fsSmoothH, k))
		if y0, y1 := g.StageRows(fsSmoothH, k); y1 > y0 {
			t2W.Produce(y1 - 1)
			parRowsRange(o, y0, y1, sobelArgs{
				in8: src.U8Pix, out: t2W.Buf(), w: w, h: h,
				outLo: t2W.Lo(), zero: zeroSmoothH,
			}, smoothHBody, smoothHLanes)
		}
		gyW.Slide(g.Keep(fsDiffV, k))
		if y0, y1 := g.StageRows(fsDiffV, k); y1 > y0 {
			gyW.Produce(y1 - 1)
			parRowsRange(o, y0, y1, sobelArgs{
				in16: t2W.Buf(), out: gyW.Buf(), w: w, h: h,
				inLo: t2W.Lo(), outLo: gyW.Lo(),
			}, diffVBody, diffVLanes)
		}
		magW.Slide(g.Keep(fsMag, k))
		if y0, y1 := g.StageRows(fsMag, k); y1 > y0 {
			magW.Produce(y1 - 1)
			// Element-wise with a linear cost model, so the strip-local
			// chunk grid records the same totals as the staged one.
			parFlat(o, (y1-y0)*w, cannyMagArgs{
				gx:  gxW.Buf()[(y0-gxW.Lo())*w:],
				gy:  gyW.Buf()[(y0-gyW.Lo())*w:],
				mag: magW.Buf()[(y0-magW.Lo())*w:],
			}, cannyMagChunk, nil)
		}
		if y0, y1 := g.StageRows(fsNMS, k); y1 > y0 {
			if gxW.Lo() != gyW.Lo() {
				panic("cv: fused canny gradient windows out of step")
			}
			parRowsRange(o, y0, y1, cannyNMSArgs{
				gx: gxW.Buf(), gy: gyW.Buf(), mag: magW.Buf(), nms: nms.U8Pix,
				w: w, h: h, magLo: magW.Lo(), gLo: gxW.Lo(),
				low: lowThresh, high: highThresh,
			}, cannyNMSRow, nil)
		}
	}

	o.cannyHysteresis(nms.U8Pix, dst.U8Pix, w, h)
	// Staged Canny materializes five full S16 planes: the two Sobel
	// scratch planes plus gx, gy and mag.
	o.fusedBytesSaved("Canny", g, w, h, 5)
	return nil
}

// edgesFused runs the DetectEdges pipeline as a strip-streamed sweep. The
// combine stage writes dst directly; it advances in flatQuantum-aligned
// element spans so its vector/tail chunk split matches the staged
// parFlat grid exactly.
func (o *Ops) edgesFused(src, dst *image.Mat, thresh int16) error {
	w, h := src.Width, src.Height
	n := w * h
	g, err := o.fusedGeometry("DetectEdges", w, h)
	if err != nil {
		return err
	}

	t1 := par.GetMat(w, g.Cap[fsDiffH], image.S16)
	defer par.PutMat(t1)
	gx := par.GetMat(w, g.Cap[fsSmoothV], image.S16)
	defer par.PutMat(gx)
	t2 := par.GetMat(w, g.Cap[fsSmoothH], image.S16)
	defer par.PutMat(t2)
	gy := par.GetMat(w, g.Cap[fsDiffV], image.S16)
	defer par.PutMat(gy)

	var t1W, gxW, t2W, gyW fuse.Strip[int16]
	t1W.Bind(t1.S16Pix, w, g.Cap[fsDiffH])
	gxW.Bind(gx.S16Pix, w, g.Cap[fsSmoothV])
	t2W.Bind(t2.S16Pix, w, g.Cap[fsSmoothH])
	gyW.Bind(gy.S16Pix, w, g.Cap[fsDiffV])

	diffHBody, smoothVBody, smoothHBody, diffVBody := sobelDiffHScalarRow,
		sobelSmoothVScalarRow, sobelSmoothHScalarRow, sobelDiffVScalarRow
	combineBody := magThreshScalarChunk
	var diffHLanes, smoothVLanes, smoothHLanes, diffVLanes func(*Ops, sobelArgs, int)
	var combineLanes func(*Ops, magThreshArgs, int, int)
	var zeroDiffH, zeroSmoothH, vthresh vec.V128
	switch o.path() {
	case ISANEON:
		defer o.n.Session("edges.fused", o.curSpan()).End()
		diffHBody, smoothVBody = sobelDiffHNEONRow, sobelSmoothVNEONRow
		smoothHBody, diffVBody = sobelSmoothHNEONRow, sobelDiffVNEONRow
		diffHLanes, smoothVLanes = sobelDiffHNEONRowLanes, sobelSmoothVNEONRowLanes
		smoothHLanes, diffVLanes = sobelSmoothHNEONRowLanes, sobelDiffVNEONRowLanes
		combineBody, combineLanes = magThreshNEONChunk, magThreshNEONChunkLanes
		vthresh = o.n.VdupqNS16(thresh)
	case ISASSE2:
		defer o.s.Session("edges.fused", o.curSpan()).End()
		diffHBody, smoothVBody = sobelDiffHSSE2Row, sobelSmoothVSSE2Row
		smoothHBody, diffVBody = sobelSmoothHSSE2Row, sobelDiffVSSE2Row
		diffHLanes, smoothVLanes = sobelDiffHSSE2RowLanes, sobelSmoothVSSE2RowLanes
		smoothHLanes, diffVLanes = sobelSmoothHSSE2RowLanes, sobelDiffVSSE2RowLanes
		combineBody, combineLanes = magThreshSSE2Chunk, magThreshSSE2ChunkLanes
		zeroDiffH = o.s.SetzeroSi128()
		zeroSmoothH = o.s.SetzeroSi128()
		vthresh = o.s.Set1Epi16(thresh)
	}

	done := 0 // combined plane-linear elements so far
	for k := 0; k < g.Strips; k++ {
		t1W.Slide(g.Keep(fsDiffH, k))
		if y0, y1 := g.StageRows(fsDiffH, k); y1 > y0 {
			t1W.Produce(y1 - 1)
			parRowsRange(o, y0, y1, sobelArgs{
				in8: src.U8Pix, out: t1W.Buf(), w: w, h: h,
				outLo: t1W.Lo(), zero: zeroDiffH,
			}, diffHBody, diffHLanes)
		}
		gxW.Slide(g.Keep(fsSmoothV, k))
		if y0, y1 := g.StageRows(fsSmoothV, k); y1 > y0 {
			gxW.Produce(y1 - 1)
			parRowsRange(o, y0, y1, sobelArgs{
				in16: t1W.Buf(), out: gxW.Buf(), w: w, h: h,
				inLo: t1W.Lo(), outLo: gxW.Lo(),
			}, smoothVBody, smoothVLanes)
		}
		t2W.Slide(g.Keep(fsSmoothH, k))
		if y0, y1 := g.StageRows(fsSmoothH, k); y1 > y0 {
			t2W.Produce(y1 - 1)
			parRowsRange(o, y0, y1, sobelArgs{
				in8: src.U8Pix, out: t2W.Buf(), w: w, h: h,
				outLo: t2W.Lo(), zero: zeroSmoothH,
			}, smoothHBody, smoothHLanes)
		}
		gyW.Slide(g.Keep(fsDiffV, k))
		if y0, y1 := g.StageRows(fsDiffV, k); y1 > y0 {
			gyW.Produce(y1 - 1)
			parRowsRange(o, y0, y1, sobelArgs{
				in16: t2W.Buf(), out: gyW.Buf(), w: w, h: h,
				inLo: t2W.Lo(), outLo: gyW.Lo(),
			}, diffVBody, diffVLanes)
		}
		// Combine everything the gradients now cover, rounded down to the
		// staged chunk grid; the final strip takes the plane's tail too.
		avail := (g.Frontier(fsCombine, k) + 1) * w
		c1 := avail / flatQuantum * flatQuantum
		if avail == n {
			c1 = n
		}
		if c1 > done {
			if gxW.Lo() != gyW.Lo() {
				panic("cv: fused edges gradient windows out of step")
			}
			base := gxW.Lo() * w
			parFlatRange(o, done-base, c1-base, magThreshArgs{
				gx: gxW.Buf(), gy: gyW.Buf(), d: dst.U8Pix[base:],
				thresh: thresh, vthresh: vthresh,
			}, combineBody, combineLanes)
			done = c1
		}
	}

	// Staged DetectEdges materializes four full S16 planes: the two Sobel
	// scratch planes plus gx and gy.
	o.fusedBytesSaved("DetectEdges", g, w, h, 4)
	return nil
}
