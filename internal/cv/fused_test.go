package cv

import (
	"testing"

	"simdstudy/internal/faults"
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

// TestBandMajorFusedMatchesStaged: an untraced fused call with no
// injector sweeps band-major, each band recomputing its seam rows. Across
// band counts (including bands shorter than the seam halo), strip heights,
// all three ISAs and guarded dispatch, its output must be byte-identical
// to the serial staged pipeline's.
func TestBandMajorFusedMatchesStaged(t *testing.T) {
	kernels := []struct {
		name string
		run  func(o *Ops, src, dst *image.Mat) error
	}{
		{"Canny", func(o *Ops, src, dst *image.Mat) error { return o.Canny(src, dst, 60, 200) }},
		{"DetectEdges", func(o *Ops, src, dst *image.Mat) error { return o.DetectEdges(src, dst, 90) }},
	}
	sizes := []image.Resolution{
		{Width: 61, Height: 53}, {Width: 130, Height: 47}, {Width: 64, Height: 64},
		{Width: 61, Height: 5}, {Width: 33, Height: 3}, {Width: 640, Height: 21},
	}
	for _, kc := range kernels {
		for _, res := range sizes {
			src := image.Synthetic(res, 7)
			for _, isa := range []ISA{ISAScalar, ISANEON, ISASSE2} {
				want := image.NewMat(res.Width, res.Height, image.U8)
				if err := kc.run(NewOps(isa, nil), src, want); err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{2, 3, 4, 7} {
					for _, strip := range []int{3, 8, 17, res.Height} {
						for _, guarded := range []bool{false, true} {
							o := NewOps(isa, nil)
							o.SetParallel(ParallelConfig{Workers: workers, MinRowsPerBand: 1})
							o.SetFuse(FuseConfig{Enabled: true, StripRows: strip})
							o.SetGuarded(guarded)
							got := image.NewMat(res.Width, res.Height, image.U8)
							if err := kc.run(o, src, got); err != nil {
								t.Fatal(err)
							}
							if !want.EqualTo(got) {
								t.Fatalf("%s %dx%d %v workers=%d strip=%d guarded=%v: band-major output differs from staged in %d pixels",
									kc.name, res.Width, res.Height, isa, workers, strip, guarded, want.DiffCount(got, 0))
							}
							if n := len(o.Faults()); n != 0 {
								t.Fatalf("%s %dx%d %v workers=%d strip=%d: %d spurious fault records: %v",
									kc.name, res.Width, res.Height, isa, workers, strip, n, o.Faults())
							}
						}
					}
				}
			}
		}
	}
}

// TestFusedCallIsOneSection: a banded untraced fused call, guarded or not,
// pays one par.Run barrier for its whole sweep; a traced one sweeps as one
// band and pays none.
func TestFusedCallIsOneSection(t *testing.T) {
	res := image.Resolution{Width: 320, Height: 240}
	src := image.Synthetic(res, 3)
	dst := image.NewMat(res.Width, res.Height, image.U8)
	for _, tc := range []struct {
		name     string
		guarded  bool
		tr       *trace.Counter
		sections uint64
	}{
		{"unguarded", false, nil, 1},
		{"guarded", true, nil, 1},
		{"traced", false, &trace.Counter{}, 0},
	} {
		o := NewOps(ISANEON, tc.tr)
		o.SetParallel(ParallelConfig{Workers: 2})
		o.SetFuse(FuseConfig{Enabled: true, StripRows: 8})
		o.SetGuarded(tc.guarded)
		for name, run := range map[string]func() error{
			"Canny":       func() error { return o.Canny(src, dst, 60, 200) },
			"DetectEdges": func() error { return o.DetectEdges(src, dst, 90) },
		} {
			before := o.sections.Load()
			if err := run(); err != nil {
				t.Fatal(err)
			}
			if got := o.sections.Load() - before; got != tc.sections {
				t.Errorf("%s %s: %d parallel sections, want %d", tc.name, name, got, tc.sections)
			}
		}
	}
}

// TestFusedCannyGuardChecksMarkers: when a unit corrupts lane 0 of every
// gradient vector, guarded fused Canny's spot-check of the NMS marker
// plane catches it, and the caller receives the scalar plane.
func TestFusedCannyGuardChecksMarkers(t *testing.T) {
	res := image.Resolution{Width: 96, Height: 72}
	src := image.Synthetic(res, 5)
	for _, isa := range []ISA{ISANEON, ISASSE2} {
		ref := NewOps(isa, nil)
		ref.SetUseOptimized(false)
		want := image.NewMat(res.Width, res.Height, image.U8)
		if err := ref.Canny(src, want, 60, 200); err != nil {
			t.Fatal(err)
		}
		o := NewOps(isa, nil)
		o.SetGuarded(true)
		o.SetFuse(FuseConfig{Enabled: true, StripRows: 8})
		o.SetFaultInjector(&corruptor{site: faults.SiteALU, remaining: -1})
		got := image.NewMat(res.Width, res.Height, image.U8)
		if err := o.Canny(src, got, 60, 200); err != nil {
			t.Fatal(err)
		}
		if !want.EqualTo(got) {
			t.Fatalf("%v: caller got a plane %d pixels off the scalar one", isa, want.DiffCount(got, 0))
		}
		actions := map[FaultAction]int{}
		for _, f := range o.Faults() {
			actions[f.Action]++
		}
		if actions[ActionDetected] != 1 || actions[ActionFallback] != 1 {
			t.Fatalf("%v: fault records %v, want one detection ending in a fallback", isa, o.Faults())
		}
	}
}
