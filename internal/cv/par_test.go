package cv

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"simdstudy/internal/image"
	"simdstudy/internal/resilience"
	"simdstudy/internal/trace"
)

// parCase runs one kernel end to end on the given Ops and returns its
// output plane. Inputs are synthesized deterministically from the
// resolution, so two runs of the same case see identical data.
type parCase struct {
	name string
	run  func(o *Ops, res image.Resolution) (*image.Mat, error)
}

func synthS16(res image.Resolution, seed uint64) *image.Mat {
	u8 := image.Synthetic(res, seed)
	m := image.NewMat(res.Width, res.Height, image.S16)
	for i, p := range u8.U8Pix {
		m.S16Pix[i] = int16(p)*7 - 512 // signed, both polarities
	}
	return m
}

func parCases() []parCase {
	return []parCase{
		{"convert", func(o *Ops, res image.Resolution) (*image.Mat, error) {
			src := image.SyntheticF32(res, 3)
			dst := image.NewMat(res.Width, res.Height, image.S16)
			return dst, o.ConvertF32ToS16(src, dst)
		}},
		{"threshold", func(o *Ops, res image.Resolution) (*image.Mat, error) {
			src := image.Synthetic(res, 4)
			dst := image.NewMat(res.Width, res.Height, image.U8)
			return dst, o.Threshold(src, dst, 97, 255, ThreshBinary)
		}},
		{"gaussian", func(o *Ops, res image.Resolution) (*image.Mat, error) {
			src := image.Synthetic(res, 5)
			dst := image.NewMat(res.Width, res.Height, image.U8)
			return dst, o.GaussianBlur(src, dst)
		}},
		{"sobelH", func(o *Ops, res image.Resolution) (*image.Mat, error) {
			src := image.Synthetic(res, 6)
			dst := image.NewMat(res.Width, res.Height, image.S16)
			return dst, o.SobelFilter(src, dst, 1, 0)
		}},
		{"sobelV", func(o *Ops, res image.Resolution) (*image.Mat, error) {
			src := image.Synthetic(res, 7)
			dst := image.NewMat(res.Width, res.Height, image.S16)
			return dst, o.SobelFilter(src, dst, 0, 1)
		}},
		{"edges", func(o *Ops, res image.Resolution) (*image.Mat, error) {
			src := image.Synthetic(res, 8)
			dst := image.NewMat(res.Width, res.Height, image.U8)
			return dst, o.DetectEdges(src, dst, 60)
		}},
		{"median", func(o *Ops, res image.Resolution) (*image.Mat, error) {
			src := image.Synthetic(res, 9)
			dst := image.NewMat(res.Width, res.Height, image.U8)
			return dst, o.MedianBlur3x3Ctx(context.Background(), src, dst)
		}},
		{"resize", func(o *Ops, res image.Resolution) (*image.Mat, error) {
			src := image.Synthetic(res, 10)
			dst := image.NewMat(res.Width/2, res.Height/2, image.U8)
			return dst, o.ResizeHalfCtx(context.Background(), src, dst)
		}},
		{"rgb2gray", func(o *Ops, res image.Resolution) (*image.Mat, error) {
			src := image.SyntheticRGB(res, 11)
			dst := image.NewMat(res.Width, res.Height, image.U8)
			return dst, o.RGBToGray(src, dst)
		}},
		{"canny", func(o *Ops, res image.Resolution) (*image.Mat, error) {
			src := image.Synthetic(res, 12)
			dst := image.NewMat(res.Width, res.Height, image.U8)
			return dst, o.Canny(src, dst, 20, 60)
		}},
		{"gradmag", func(o *Ops, res image.Resolution) (*image.Mat, error) {
			gx := synthS16(res, 13)
			gy := synthS16(res, 14)
			dst := image.NewMat(res.Width, res.Height, image.S16)
			return dst, o.GradientMagnitude(gx, gy, dst)
		}},
	}
}

// parResolutions: odd dimensions exercise SIMD tails; the tall one spans
// multiple flatQuantum blocks so flat kernels band for real; the tiny one
// forces single-row bands at high worker counts.
var parResolutions = []image.Resolution{
	{Width: 67, Height: 61, Name: "67x61"},
	{Width: 34, Height: 7, Name: "34x7"},
	{Width: 129, Height: 97, Name: "129x97"},
}

// TestParallelBitExactAndCountIdentical: for every kernel, ISA, resolution
// and worker count, the parallel run must produce the same pixels, the same
// per-class instruction counts and the same named-event counts as the
// serial run. This is the central banding invariant: parallelism is a
// scheduling change, never a semantic one.
func TestParallelBitExactAndCountIdentical(t *testing.T) {
	for _, isa := range []ISA{ISANEON, ISASSE2} {
		for _, res := range parResolutions {
			for _, tc := range parCases() {
				baseTr := &trace.Counter{}
				base := NewOps(isa, baseTr)
				want, err := tc.run(base, res)
				if err != nil {
					t.Fatalf("%v/%s/%s serial: %v", isa, res.Name, tc.name, err)
				}
				wantClasses := baseTr.Classes()
				wantEvents := baseTr.Events()
				wantLd, wantSt := baseTr.BytesLoaded(), baseTr.BytesStored()

				for _, workers := range []int{2, 4, 7} {
					tr := &trace.Counter{}
					o := NewOps(isa, tr)
					o.SetParallel(ParallelConfig{Workers: workers, MinRowsPerBand: 1})
					got, err := tc.run(o, res)
					if err != nil {
						t.Fatalf("%v/%s/%s w=%d: %v", isa, res.Name, tc.name, workers, err)
					}
					if !want.EqualTo(got) {
						t.Errorf("%v/%s/%s w=%d: output differs in %d pixels",
							isa, res.Name, tc.name, workers, want.DiffCount(got, 0))
					}
					if c := tr.Classes(); c != wantClasses {
						t.Errorf("%v/%s/%s w=%d: class counts differ\nserial:   %v\nparallel: %v",
							isa, res.Name, tc.name, workers, wantClasses, c)
					}
					if ev := tr.Events(); !reflect.DeepEqual(ev, wantEvents) {
						t.Errorf("%v/%s/%s w=%d: event counts differ\nserial:   %v\nparallel: %v",
							isa, res.Name, tc.name, workers, wantEvents, ev)
					}
					if ld, st := tr.BytesLoaded(), tr.BytesStored(); ld != wantLd || st != wantSt {
						t.Errorf("%v/%s/%s w=%d: byte traffic differs: %d/%d vs %d/%d",
							isa, res.Name, tc.name, workers, ld, st, wantLd, wantSt)
					}
				}
			}
		}
	}
}

// TestParallelScalarISA: banding must also hold on the scalar reference
// paths (useOptimized off), which the guard referee depends on.
func TestParallelScalarISA(t *testing.T) {
	res := image.Resolution{Width: 53, Height: 37, Name: "53x37"}
	for _, tc := range parCases() {
		base := NewOps(ISANEON, nil)
		base.SetUseOptimized(false)
		want, err := tc.run(base, res)
		if err != nil {
			t.Fatalf("%s serial: %v", tc.name, err)
		}
		o := NewOps(ISANEON, nil)
		o.SetUseOptimized(false)
		o.SetParallel(ParallelConfig{Workers: 4, MinRowsPerBand: 1})
		got, err := tc.run(o, res)
		if err != nil {
			t.Fatalf("%s parallel: %v", tc.name, err)
		}
		if !want.EqualTo(got) {
			t.Errorf("%s: scalar-path parallel output differs in %d pixels",
				tc.name, want.DiffCount(got, 0))
		}
	}
}

// TestSetParallelSemantics: zero config and Workers=1 mean serial;
// negative Workers means one band per core; MinRowsPerBand defaults.
func TestSetParallelSemantics(t *testing.T) {
	o := NewOps(ISANEON, nil)
	if p := o.Parallel(); p.Workers != 0 {
		t.Fatalf("fresh Ops should be serial, got %+v", p)
	}
	o.SetParallel(ParallelConfig{})
	if p := o.Parallel(); p.Workers != 1 {
		t.Fatalf("zero config should normalize to serial, got %+v", p)
	}
	o.SetParallel(ParallelConfig{Workers: 3})
	if p := o.Parallel(); p.Workers != 3 || p.MinRowsPerBand <= 0 {
		t.Fatalf("explicit workers lost: %+v", p)
	}
	o.SetParallel(ParallelConfig{Workers: -1})
	if p := o.Parallel(); p.Workers < 1 {
		t.Fatalf("negative workers should become per-core count, got %+v", p)
	}
}

// countdownCtx reports cancellation after a fixed number of Err polls, so a
// parallel kernel call gets cancelled deterministically mid-flight (after
// some rows have completed) rather than at entry.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestParallelCancellationStopsSiblings: a context that expires mid-kernel
// must unwind a parallel call as a typed DeadlineError with partial row
// accounting, and the sibling bands must stop at their next row boundary
// (the call returns; no band runs to completion).
func TestParallelCancellationStopsSiblings(t *testing.T) {
	res := image.Resolution{Width: 67, Height: 241, Name: "67x241"}
	src := image.Synthetic(res, 21)
	dst := image.NewMat(res.Width, res.Height, image.U8)

	o := NewOps(ISANEON, nil)
	o.SetParallel(ParallelConfig{Workers: 4, MinRowsPerBand: 1})
	ctx := &countdownCtx{Context: context.Background()}
	ctx.left.Store(30) // entry check + ~30 row polls across the bands

	err := o.GaussianBlurCtx(ctx, src, dst)
	var de *resilience.DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *resilience.DeadlineError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatal("DeadlineError must unwrap to context.Canceled")
	}
	if de.Unit != "rows" || de.Completed <= 0 || de.Completed >= de.Total {
		t.Errorf("accounting = %d/%d %s, want partial progress", de.Completed, de.Total, de.Unit)
	}
}

// TestParallelSharedOps: one Ops hammered from 8 goroutines, each running
// parallel kernels on private planes — must be race-clean (run with -race)
// and every output bit-exact against a serial reference.
func TestParallelSharedOps(t *testing.T) {
	res := image.Resolution{Width: 67, Height: 61, Name: "67x61"}
	ref := NewOps(ISANEON, nil)
	wantBlur := image.NewMat(res.Width, res.Height, image.U8)
	wantThr := image.NewMat(res.Width, res.Height, image.U8)
	src := image.Synthetic(res, 30)
	if err := ref.GaussianBlur(src, wantBlur); err != nil {
		t.Fatal(err)
	}
	if err := ref.Threshold(src, wantThr, 97, 255, ThreshBinary); err != nil {
		t.Fatal(err)
	}

	shared := NewOps(ISANEON, &trace.Counter{})
	shared.SetParallel(ParallelConfig{Workers: 4, MinRowsPerBand: 1})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			blur := image.NewMat(res.Width, res.Height, image.U8)
			thr := image.NewMat(res.Width, res.Height, image.U8)
			for it := 0; it < 5; it++ {
				if err := shared.GaussianBlur(src, blur); err != nil {
					errs[g] = err
					return
				}
				if err := shared.Threshold(src, thr, 97, 255, ThreshBinary); err != nil {
					errs[g] = err
					return
				}
				if !blur.EqualTo(wantBlur) || !thr.EqualTo(wantThr) {
					errs[g] = errors.New("shared-Ops output diverged from serial reference")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}
