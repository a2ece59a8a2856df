package cv

import (
	"fmt"
	"testing"

	"simdstudy/internal/image"
	"simdstudy/internal/par"
)

// refereeCase is one guarded entry point as its referee runs it: the
// kernel's scalar entry point over a row view of the source.
type refereeCase struct {
	name  string
	k     guardKernel
	kind  image.Type // output element type
	rerun func(src *image.Mat, rgb *image.RGB) refRun
}

func refereeCases() []refereeCase {
	mat := func(run func(ref *Ops, s, d *image.Mat) error) func(*image.Mat, *image.RGB) refRun {
		return func(src *image.Mat, _ *image.RGB) refRun {
			return func(ref *Ops, r0, r1 int, d *image.Mat) error { return run(ref, src.Rows(r0, r1), d) }
		}
	}
	return []refereeCase{
		{"ConvertF32ToS16", gkConvert, image.S16, mat((*Ops).ConvertF32ToS16)},
		{"Threshold", gkThreshold, image.U8, mat(func(ref *Ops, s, d *image.Mat) error {
			return ref.Threshold(s, d, 100, 200, ThreshBinary)
		})},
		{"RGBToGray", gkRGBToGray, image.U8, func(_ *image.Mat, rgb *image.RGB) refRun {
			return func(ref *Ops, r0, r1 int, d *image.Mat) error { return ref.RGBToGray(rgb.Rows(r0, r1), d) }
		}},
		{"ResizeHalf", gkResizeHalf, image.U8, mat((*Ops).ResizeHalf)},
		{"SobelX", gkSobel, image.S16, mat(func(ref *Ops, s, d *image.Mat) error { return ref.SobelFilter(s, d, 1, 0) })},
		{"SobelY", gkSobel, image.S16, mat(func(ref *Ops, s, d *image.Mat) error { return ref.SobelFilter(s, d, 0, 1) })},
		{"DetectEdges", gkEdges, image.U8, mat(func(ref *Ops, s, d *image.Mat) error { return ref.DetectEdges(s, d, 80) })},
		{"MedianBlur3x3", gkMedian, image.U8, mat((*Ops).MedianBlur3x3)},
		{"GaussianBlur", gkGaussian, image.U8, mat((*Ops).GaussianBlur)},
	}
}

// TestRefereeRowsMatchFullPlane: for every windowed guard kernel, every
// SIMD ISA's referee and every output row, the row the windowed referee
// computes from a row view of the source (sampled row plus halo, clamped
// to the plane) equals the same row of the full-plane referee — at heights
// down to one row, odd source heights for ResizeHalf, and a width one
// below the 16-lane vector quantum. The guard's own merged sample sets
// are checked too.
func TestRefereeRowsMatchFullPlane(t *testing.T) {
	if guardSpecs[gkCanny].halo != wholePlane {
		t.Fatal("fused Canny's hysteresis is global: its referee must be whole-plane")
	}
	covered := map[guardKernel]bool{gkCanny: true}
	heights := []int{1, 2, 3, 4, 7, 8, 33, 480}
	for _, c := range refereeCases() {
		covered[c.k] = true
		spec := guardSpecs[c.k]
		for _, isa := range []ISA{ISANEON, ISASSE2} {
			for _, w := range []int{640, 15} {
				for _, srcH := range heights {
					dw, dh := w, srcH
					if spec.scale == 2 {
						dw, dh = w/2, srcH/2
					}
					if dh == 0 {
						continue
					}
					name := fmt.Sprintf("%s/%v/%dx%d", c.name, isa, w, srcH)
					res := image.Resolution{Width: w, Height: srcH}
					seed := uint64(srcH + w)
					src := image.Synthetic(res, seed)
					if c.k == gkConvert {
						src = image.SyntheticF32(res, seed)
					}
					rerun := c.rerun(src, image.SyntheticRGB(res, seed))
					checkRefereeRows(t, name, NewOps(isa, nil), spec, srcH, dw, dh, c.kind, rerun)
				}
			}
		}
	}
	for k := range guardSpecs {
		if !covered[guardKernel(k)] {
			t.Errorf("guard kernel %s has no referee-window case", guardSpecs[k].name)
		}
	}
}

func checkRefereeRows(t *testing.T, name string, o *Ops, spec guardSpec, srcH, w, h int, kind image.Type, rerun refRun) {
	t.Helper()
	full, err := o.referee(w, h, kind, func(ref *Ops, d *image.Mat) error { return rerun(ref, 0, srcH, d) })
	if err != nil {
		t.Fatalf("%s: full referee: %v", name, err)
	}
	defer par.PutMat(full)
	dst := image.NewMat(w, h, kind)
	check := func(rows []int) {
		t.Helper()
		win, err := o.rowReferee(spec, srcH, dst, rows, rerun)
		if err != nil {
			t.Fatalf("%s rows %v: windowed referee: %v", name, rows, err)
		}
		defer par.PutMat(win.m)
		for _, y := range rows {
			if _, d := diffSpan(full, win.m, y*w, win.row(y)*w, w, 0); d != 0 {
				t.Errorf("%s: row %d of rows %v differs from the full-plane referee in %d pixels", name, y, rows, d)
			}
		}
	}
	for y := 0; y < h; y++ {
		check([]int{y})
	}
	for seed := uint64(1); seed <= 3; seed++ {
		o.policy = GuardPolicy{SampleRows: 8, Seed: seed}
		check(o.sampleRows(h))
	}
	all := make([]int, h)
	for y := range all {
		all[y] = y
	}
	check(all)
}

// TestRefereeBandConfig: the whole-plane referee (fallback, sampled audit,
// fused Canny) bands like its parent unless the parent is quarantined to
// serial; the row-window referee runs serially.
func TestRefereeBandConfig(t *testing.T) {
	o := NewOps(ISANEON, nil)
	o.SetParallel(ParallelConfig{Workers: 3})
	if got := o.refereeOps(true).par; got != o.par {
		t.Errorf("whole-plane referee bands %+v, parent %+v", got, o.par)
	}
	if got := o.refereeOps(false).par; got.Workers > 1 {
		t.Errorf("row-window referee bands %+v, want serial", got)
	}
	o.serialOnly = true
	if got := o.refereeOps(true).par; got.Workers > 1 {
		t.Errorf("quarantined parent's referee bands %+v, want serial", got)
	}
}
