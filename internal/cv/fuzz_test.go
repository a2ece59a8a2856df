package cv

import (
	"context"
	"math"
	"testing"

	"simdstudy/internal/image"
	"simdstudy/internal/trace"
)

// fuzzKernel is one kernel under FuzzKernelVsScalar: its guardSpecs name
// (the key of its declared tolerance), its element types, and a call with
// parameters drawn from the input's seed.
type fuzzKernel struct {
	name     string
	src, dst image.Type
	halfDst  bool // ResizeHalf: dst is w/2 x h/2
	fusable  bool
	run      func(o *Ops, seed uint64, src, dst *image.Mat) error
}

var fuzzKernels = []fuzzKernel{
	{name: "ConvertF32ToS16", src: image.F32, dst: image.S16,
		run: func(o *Ops, _ uint64, s, d *image.Mat) error { return o.ConvertF32ToS16(s, d) }},
	{name: "Threshold", src: image.U8, dst: image.U8,
		run: func(o *Ops, seed uint64, s, d *image.Mat) error {
			typ := ThreshType(seed % uint64(ThreshToZeroInv+1))
			return o.Threshold(s, d, uint8(seed>>8), uint8(seed>>16), typ)
		}},
	{name: "GaussianBlur", src: image.U8, dst: image.U8,
		run: func(o *Ops, _ uint64, s, d *image.Mat) error { return o.GaussianBlur(s, d) }},
	{name: "SobelFilter", src: image.U8, dst: image.S16,
		run: func(o *Ops, _ uint64, s, d *image.Mat) error { return o.SobelFilter(s, d, 1, 0) }},
	{name: "SobelFilter", src: image.U8, dst: image.S16,
		run: func(o *Ops, _ uint64, s, d *image.Mat) error { return o.SobelFilter(s, d, 0, 1) }},
	{name: "MedianBlur3x3", src: image.U8, dst: image.U8,
		run: func(o *Ops, _ uint64, s, d *image.Mat) error { return o.MedianBlur3x3Ctx(context.Background(), s, d) }},
	{name: "ResizeHalf", src: image.U8, dst: image.U8, halfDst: true,
		run: func(o *Ops, _ uint64, s, d *image.Mat) error { return o.ResizeHalfCtx(context.Background(), s, d) }},
	{name: "DetectEdges", src: image.U8, dst: image.U8, fusable: true,
		run: func(o *Ops, seed uint64, s, d *image.Mat) error { return o.DetectEdges(s, d, int16(seed%400)) }},
	{name: "Canny", src: image.U8, dst: image.U8, fusable: true,
		run: func(o *Ops, seed uint64, s, d *image.Mat) error {
			low := int16(seed % 300)
			return o.Canny(s, d, low, low+int16((seed>>16)%300))
		}},
}

// fuzzF32Edges are the conversion inputs where emulations diverge: NaN,
// the infinities, and the rounding and saturation boundaries of int16.
var fuzzF32Edges = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	32767.5, -32767.5, 32768.5, -32768.5, 2.5, -2.5, 0.5, -0.5,
}

// fuzzSource fills a w x h plane of kind from seed: uniform bytes for U8;
// for F32 a mix of int16-range fractional values and fuzzF32Edges.
func fuzzSource(kind image.Type, w, h int, seed uint64) *image.Mat {
	m := image.NewMat(w, h, kind)
	s := seed | 1
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	for i := range m.U8Pix {
		m.U8Pix[i] = uint8(next())
	}
	for i := range m.F32Pix {
		r := next()
		if r%4 == 0 {
			m.F32Pix[i] = fuzzF32Edges[(r>>8)%uint64(len(fuzzF32Edges))]
			continue
		}
		m.F32Pix[i] = float32(int64((r>>16)%80000)-40000) / float32(1+(r>>40)%4)
	}
	return m
}

// FuzzKernelVsScalar is the differential check every dispatch path answers
// to: for a kernel, an ISA, a geometry, a seed, a worker count and a fuse
// setting, the SIMD output must lie within Tolerance(kernel, isa) of the
// same ISA's scalar code, and must be byte-equal to the serial, unfused,
// untraced SIMD run whether banded, fused or traced.
func FuzzKernelVsScalar(f *testing.F) {
	// Widths straddle the 8- and 16-lane quanta; 1xN and Nx1 planes have
	// no interior. The seeds put F32 conversions on rounding and
	// saturation edges.
	for k := range fuzzKernels {
		for _, wh := range [][2]uint8{{7, 5}, {8, 3}, {9, 17}, {15, 2}, {16, 9}, {17, 1}, {1, 33}, {40, 1}, {70, 40}} {
			f.Add(uint8(k), uint8(k%2), wh[0], wh[1], uint64(k)*0x9E3779B97F4A7C15+uint64(wh[0]), uint8(wh[1]), wh[0]%2 == 0)
		}
	}
	f.Fuzz(func(t *testing.T, kSel, isaSel, wSel, hSel uint8, seed uint64, workersSel uint8, fuse bool) {
		k := fuzzKernels[int(kSel)%len(fuzzKernels)]
		isa := ISANEON
		if isaSel%2 == 1 {
			isa = ISASSE2
		}
		w, h := 1+int(wSel)%70, 1+int(hSel)%40
		workers := [...]int{1, 2, 7}[workersSel%3]
		src := fuzzSource(k.src, w, h, seed)
		dw, dh := w, h
		if k.halfDst {
			dw, dh = w/2, h/2
		}
		run := func(o *Ops) (*image.Mat, error) {
			// A source below 2x2 has no half-size plane: ResizeHalf must
			// reject the 1-pixel stand-in on every path.
			dst := image.NewMat(max(dw, 1), max(dh, 1), k.dst)
			return dst, k.run(o, seed, src, dst)
		}

		base, err := run(NewOps(isa, nil))
		ref := NewOps(isa, nil)
		ref.SetUseOptimized(false)
		want, refErr := run(ref)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%s %v %dx%d: SIMD error %v, scalar error %v", k.name, isa, w, h, err, refErr)
		}
		if err != nil {
			return
		}
		tol := Tolerance(k.name, isa)
		if _, d := diffSpan(base, want, 0, 0, base.Pixels(), tol); d > 0 {
			t.Fatalf("%s %v %dx%d seed %#x: %d pixels beyond tolerance %d of scalar", k.name, isa, w, h, seed, d, tol)
		}

		for _, traced := range []bool{false, true} {
			var tc *trace.Counter
			if traced {
				tc = &trace.Counter{}
			}
			o := NewOps(isa, tc)
			o.SetParallel(ParallelConfig{Workers: workers, MinRowsPerBand: 1})
			if k.fusable {
				o.SetFuse(FuseConfig{Enabled: fuse, StripRows: int(seed>>32) % 9})
			}
			got, err := run(o)
			if err != nil {
				t.Fatalf("%s %v %dx%d workers=%d fuse=%v traced=%v: %v", k.name, isa, w, h, workers, fuse, traced, err)
			}
			if !got.EqualTo(base) {
				t.Fatalf("%s %v %dx%d seed %#x workers=%d fuse=%v traced=%v: %d pixels differ from the serial untraced run",
					k.name, isa, w, h, seed, workers, fuse, traced, got.DiffCount(base, 0))
			}
		}
	})
}
