package cv

import (
	"testing"

	"simdstudy/internal/image"
	"simdstudy/internal/obs"
	"simdstudy/internal/trace"
)

// TestFusedMatchesStaged is the fusion acceptance core: for both fused
// pipelines, across strip heights (including one-row strips and a strip
// covering the whole image), band counts and all three ISAs, the fused
// sweep must produce byte-identical output planes AND a bit-identical
// merged instruction trace (classes, bytes, per-opcode counts) versus the
// staged path. Odd widths exercise the vector/tail splits.
func TestFusedMatchesStaged(t *testing.T) {
	type kernelCase struct {
		name string
		run  func(o *Ops, src, dst *image.Mat) error
	}
	kernels := []kernelCase{
		{"Canny", func(o *Ops, src, dst *image.Mat) error { return o.Canny(src, dst, 60, 200) }},
		{"DetectEdges", func(o *Ops, src, dst *image.Mat) error { return o.DetectEdges(src, dst, 90) }},
	}
	sizes := []image.Resolution{{Width: 61, Height: 53}, {Width: 130, Height: 47}, {Width: 64, Height: 64}}
	for _, kc := range kernels {
		for _, res := range sizes {
			src := image.Synthetic(res, 7)
			for _, isa := range []ISA{ISAScalar, ISANEON, ISASSE2} {
				for _, workers := range []int{1, 2, 4, 7} {
					staged := NewOps(isa, &trace.Counter{})
					staged.SetParallel(ParallelConfig{Workers: workers, MinRowsPerBand: 1})
					want := image.NewMat(res.Width, res.Height, image.U8)
					if err := kc.run(staged, src, want); err != nil {
						t.Fatal(err)
					}
					wantSum := staged.T.Summary()
					for _, strip := range []int{3, 8, 17, res.Height} {
						fused := NewOps(isa, &trace.Counter{})
						fused.SetParallel(ParallelConfig{Workers: workers, MinRowsPerBand: 1})
						fused.SetFuse(FuseConfig{Enabled: true, StripRows: strip})
						got := image.NewMat(res.Width, res.Height, image.U8)
						if err := kc.run(fused, src, got); err != nil {
							t.Fatal(err)
						}
						if !want.EqualTo(got) {
							t.Fatalf("%s %dx%d %v workers=%d strip=%d: fused output diverges from staged",
								kc.name, res.Width, res.Height, isa, workers, strip)
						}
						if gotSum := fused.T.Summary(); gotSum != wantSum {
							t.Fatalf("%s %dx%d %v workers=%d strip=%d: trace counts diverge\nstaged:\n%s\nfused:\n%s",
								kc.name, res.Width, res.Height, isa, workers, strip, wantSum, gotSum)
						}
					}
				}
			}
		}
	}
}

// TestFusedAutoStripRows: with StripRows 0 the geometry is sized from the
// configured cache model and the output must still match staged.
func TestFusedAutoStripRows(t *testing.T) {
	res := image.Resolution{Width: 320, Height: 240}
	src := image.Synthetic(res, 3)
	staged := NewOps(ISANEON, nil)
	want := image.NewMat(res.Width, res.Height, image.U8)
	if err := staged.Canny(src, want, 60, 200); err != nil {
		t.Fatal(err)
	}
	fused := NewOps(ISANEON, nil)
	fused.SetFuse(FuseConfig{Enabled: true})
	got := image.NewMat(res.Width, res.Height, image.U8)
	if err := fused.Canny(src, got, 60, 200); err != nil {
		t.Fatal(err)
	}
	if !want.EqualTo(got) {
		t.Fatal("auto-sized fused Canny diverges from staged")
	}
	g, err := fused.fusedGeometry("Canny", res.Width, res.Height)
	if err != nil {
		t.Fatal(err)
	}
	if g.Strips < 2 {
		t.Fatalf("auto sizing chose %d strips for %dx%d; expected a real sweep", g.Strips, res.Width, res.Height)
	}
}

// TestFusedGuarded: guarded fused dispatch spot-checks the fused output
// against the staged scalar referee and stays correct.
func TestFusedGuarded(t *testing.T) {
	res := image.Resolution{Width: 96, Height: 72}
	src := image.Synthetic(res, 5)
	for _, isa := range []ISA{ISANEON, ISASSE2} {
		staged := NewOps(isa, nil)
		want := image.NewMat(res.Width, res.Height, image.U8)
		if err := staged.Canny(src, want, 60, 200); err != nil {
			t.Fatal(err)
		}
		o := NewOps(isa, nil)
		o.SetGuarded(true)
		o.SetFuse(FuseConfig{Enabled: true, StripRows: 8})
		got := image.NewMat(res.Width, res.Height, image.U8)
		if err := o.Canny(src, got, 60, 200); err != nil {
			t.Fatal(err)
		}
		if !want.EqualTo(got) {
			t.Fatalf("%v: guarded fused Canny diverges", isa)
		}
		if err := o.DetectEdges(src, got, 90); err != nil {
			t.Fatal(err)
		}
		if err := staged.DetectEdges(src, want, 90); err != nil {
			t.Fatal(err)
		}
		if !want.EqualTo(got) {
			t.Fatalf("%v: guarded fused DetectEdges diverges", isa)
		}
	}
}

// TestFusedBytesSavedMetric: the fused path must report intermediate-plane
// bytes saved, and the counter must be monotonic across calls.
func TestFusedBytesSavedMetric(t *testing.T) {
	res := image.Resolution{Width: 320, Height: 240}
	src := image.Synthetic(res, 3)
	reg := obs.NewRegistry()
	o := NewOps(ISANEON, nil)
	o.Obs = reg
	o.SetFuse(FuseConfig{Enabled: true, StripRows: 16})
	dst := image.NewMat(res.Width, res.Height, image.U8)
	if err := o.Canny(src, dst, 60, 200); err != nil {
		t.Fatal(err)
	}
	c := reg.Counter("fused_plane_bytes_saved_total", obs.L("kernel", "Canny"), obs.L("isa", "neon"))
	after1 := c.Value()
	if after1 == 0 {
		t.Fatal("fused Canny saved no intermediate-plane bytes")
	}
	// Well over half the staged planes' 10*w*h bytes must be saved with
	// 16-row strips on a 240-row image.
	if min := uint64(5 * res.Width * res.Height); after1 < min {
		t.Fatalf("saved %d bytes, want at least %d", after1, min)
	}
	if err := o.DetectEdges(src, dst, 90); err != nil {
		t.Fatal(err)
	}
	if err := o.Canny(src, dst, 60, 200); err != nil {
		t.Fatal(err)
	}
	if v := c.Value(); v != 2*after1 {
		t.Fatalf("counter not monotonic per call: %d then %d", after1, v)
	}
	e := reg.Counter("fused_plane_bytes_saved_total", obs.L("kernel", "DetectEdges"), obs.L("isa", "neon"))
	if e.Value() == 0 {
		t.Fatal("fused DetectEdges saved no intermediate-plane bytes")
	}
}

// TestFusedStripsBandAt5MP: automatic strip heights are floored at
// Workers × MinRowsPerBand, so at 2592x1920 with two workers every
// full-height strip pass of both fused pipelines splits into at least two
// bands; only a stage's final, plane-clipped pass may run on one. An
// explicit StripRows is kept as given.
func TestFusedStripsBandAt5MP(t *testing.T) {
	const w, h = 2592, 1920
	rowStages := map[string][]int{
		"Canny":       {fsDiffH, fsSmoothV, fsSmoothH, fsDiffV, fsNMS},
		"DetectEdges": {fsDiffH, fsSmoothV, fsSmoothH, fsDiffV},
	}
	for kernel, stages := range rowStages {
		o := NewOps(ISANEON, nil)
		o.SetParallel(ParallelConfig{Workers: 2})
		o.SetFuse(FuseConfig{Enabled: true})
		g, err := o.fusedGeometry(kernel, w, h)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range stages {
			last := -1
			for k := 0; k < g.Strips; k++ {
				if y0, y1 := g.StageRows(i, k); y1 > y0 {
					last = k
				}
			}
			for k := 0; k < last; k++ {
				y0, y1 := g.StageRows(i, k)
				if nb := o.nBands(y1-y0, o.par.MinRowsPerBand); nb < 2 {
					t.Errorf("%s stage %d strip %d: %d rows run on %d band(s) (strip rows %d)",
						kernel, i, k, y1-y0, nb, g.StripRows)
				}
			}
		}

		o.SetFuse(FuseConfig{Enabled: true, StripRows: 8})
		if g, err = o.fusedGeometry(kernel, w, h); err != nil {
			t.Fatal(err)
		}
		if g.StripRows != 8 {
			t.Errorf("%s: explicit StripRows 8 planned as %d", kernel, g.StripRows)
		}
	}
}
