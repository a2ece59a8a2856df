package cv

import (
	"context"
	"fmt"
	"testing"

	"simdstudy/internal/faults"
	"simdstudy/internal/image"
	"simdstudy/internal/integrity"
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
		{"ResizeHalf", gkResizeHalf, image.U8, mat(func(o *Ops, s, d *image.Mat) error { return o.ResizeHalfCtx(context.Background(), s, d) })},
		{"SobelX", gkSobel, image.S16, mat(func(ref *Ops, s, d *image.Mat) error { return ref.SobelFilter(s, d, 1, 0) })},
		{"SobelY", gkSobel, image.S16, mat(func(ref *Ops, s, d *image.Mat) error { return ref.SobelFilter(s, d, 0, 1) })},
		{"DetectEdges", gkEdges, image.U8, mat(func(ref *Ops, s, d *image.Mat) error { return ref.DetectEdges(s, d, 80) })},
		{"MedianBlur3x3", gkMedian, image.U8, mat(func(o *Ops, s, d *image.Mat) error { return o.MedianBlur3x3Ctx(context.Background(), s, d) })},
		{"GaussianBlur", gkGaussian, image.U8, mat((*Ops).GaussianBlur)},
		// Fused Canny's spot-check windows: staged NMS markers, before the
		// global hysteresis.
		{"CannyNMS", gkCanny, image.U8, mat(func(ref *Ops, s, d *image.Mat) error {
			return ref.cannyStagedNMS(s, d, 60, 200)
		})},
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
	covered := map[guardKernel]bool{}
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

// TestRefereeBandConfig: the whole-plane referee (fallback, sampled audit)
// bands like its parent unless the parent is quarantined to
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
	o.tree.serial = true
	if got := o.refereeOps(true).par; got.Workers > 1 {
		t.Errorf("quarantined parent's referee bands %+v, want serial", got)
	}
}

// TestRefereePathsAgree: guarded or not, staged or fused, an audit at rate
// 1 reports a mismatch for exactly the outputs the injected bit flips
// corrupted — a divergence a later stage masks (fused Canny's hysteresis)
// is not a corrupted output — and every output the caller receives equals
// the scalar reference.
func TestRefereePathsAgree(t *testing.T) {
	const calls = 60
	res := image.Resolution{Width: 64, Height: 48}
	planCfg := faults.Config{Rate: 5e-4, Seed: 11, Kinds: []faults.Kind{faults.KindBitFlip}}
	kernels := []struct {
		name string
		fuse bool
		run  func(o *Ops, src, dst *image.Mat) error
	}{
		{"FusedDetectEdges", true, func(o *Ops, src, dst *image.Mat) error { return o.DetectEdges(src, dst, 80) }},
		{"FusedCanny", true, func(o *Ops, src, dst *image.Mat) error { return o.Canny(src, dst, 60, 200) }},
		{"StagedDetectEdges", false, func(o *Ops, src, dst *image.Mat) error { return o.DetectEdges(src, dst, 80) }},
		{"Threshold", false, func(o *Ops, src, dst *image.Mat) error {
			return o.Threshold(src, dst, 100, 255, ThreshTrunc)
		}},
	}
	for _, k := range kernels {
		for _, isa := range []ISA{ISANEON, ISASSE2} {
			newOps := func() *Ops {
				o := NewOps(isa, nil)
				o.SetFaultInjector(faults.NewPlan(planCfg))
				if k.fuse {
					o.SetFuse(FuseConfig{Enabled: true, StripRows: 8})
				}
				return o
			}
			ref := NewOps(isa, nil)
			ref.SetUseOptimized(false)
			srcs := make([]*image.Mat, calls)
			refs := make([]*image.Mat, calls)
			for i := range srcs {
				srcs[i] = image.Synthetic(res, uint64(i+1))
				refs[i] = image.NewMat(res.Width, res.Height, image.U8)
				if err := k.run(ref, srcs[i], refs[i]); err != nil {
					t.Fatal(err)
				}
			}

			// Ground truth: the same calls and fault plan, unaudited and
			// unguarded. Which outputs actually come out corrupted?
			truth := newOps()
			corrupted := 0
			for i, src := range srcs {
				dst := image.NewMat(res.Width, res.Height, image.U8)
				if err := k.run(truth, src, dst); err != nil {
					t.Fatal(err)
				}
				if !refs[i].EqualTo(dst) {
					corrupted++
				}
			}
			if corrupted == 0 {
				t.Fatalf("%s/%v: injection corrupted no outputs; test is vacuous", k.name, isa)
			}

			for _, guarded := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%v/guarded=%v", k.name, isa, guarded), func(t *testing.T) {
					aud := integrity.NewAuditor(integrity.AuditConfig{Rate: 1})
					o := newOps()
					o.SetAuditor(aud)
					if guarded {
						// No retries and no kill-switch: the SIMD path runs
						// once per call, as in the ground-truth run, so both
						// draw the same fault schedule.
						o.SetGuardPolicy(GuardPolicy{MaxRetries: 0, KillAfter: -1})
					}
					for i, src := range srcs {
						dst := image.NewMat(res.Width, res.Height, image.U8)
						if err := k.run(o, src, dst); err != nil {
							t.Fatal(err)
						}
						if !refs[i].EqualTo(dst) {
							t.Fatalf("call %d: output differs from scalar in %d pixels",
								i, refs[i].DiffCount(dst, 0))
						}
					}
					if got := aud.Mismatches(); got != uint64(corrupted) {
						t.Fatalf("audit reported %d mismatches, %d outputs were corrupted", got, corrupted)
					}
				})
			}
		}
	}
}
