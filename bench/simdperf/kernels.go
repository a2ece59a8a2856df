package simdperf

import (
	"context"
	"fmt"
	"math"
	"net/url"
	"strconv"

	"simdstudy/internal/cv"
	"simdstudy/internal/image"
	"simdstudy/internal/serve"
)

// kernelSpec mirrors one entry of the server's request kernel table: the
// canonical name and parameter signature its memo keys fold in, the plane
// types, and the kernel call with the server's fixed parameters. The
// benchmark needs its own copy because the server's is unexported; the
// replay's memo lookups only hit when the two agree, and checkKernelTable
// fails the run when the server accepts a kernel this table lacks.
type kernelSpec struct {
	name    string
	srcKind image.Type
	dstKind image.Type
	halfDst bool
	sig     string
	run     func(ctx context.Context, o *cv.Ops, src, dst *image.Mat) error
}

var serveKernels = map[string]kernelSpec{
	"gaussian": {"GaussianBlur", image.U8, image.U8, false, "g5x5",
		func(ctx context.Context, o *cv.Ops, src, dst *image.Mat) error {
			return o.GaussianBlurCtx(ctx, src, dst)
		}},
	"sobel": {"SobelFilter", image.U8, image.S16, false, "dx1dy0",
		func(ctx context.Context, o *cv.Ops, src, dst *image.Mat) error {
			return o.SobelFilterCtx(ctx, src, dst, 1, 0)
		}},
	"edges": {"DetectEdges", image.U8, image.U8, false, "t128",
		func(ctx context.Context, o *cv.Ops, src, dst *image.Mat) error {
			return o.DetectEdgesCtx(ctx, src, dst, 128)
		}},
	"canny": {"Canny", image.U8, image.U8, false, "lo60hi200",
		func(ctx context.Context, o *cv.Ops, src, dst *image.Mat) error {
			return o.CannyCtx(ctx, src, dst, 60, 200)
		}},
	"median": {"MedianBlur3x3", image.U8, image.U8, false, "3x3",
		func(ctx context.Context, o *cv.Ops, src, dst *image.Mat) error {
			return o.MedianBlur3x3Ctx(ctx, src, dst)
		}},
	"resize": {"ResizeHalf", image.U8, image.U8, true, "half",
		func(ctx context.Context, o *cv.Ops, src, dst *image.Mat) error { return o.ResizeHalfCtx(ctx, src, dst) }},
	"threshold": {"Threshold", image.U8, image.U8, false, "t128m255bin",
		func(ctx context.Context, o *cv.Ops, src, dst *image.Mat) error {
			return o.ThresholdCtx(ctx, src, dst, 128, 255, cv.ThreshBinary)
		}},
	"convert": {"ConvertF32ToS16", image.F32, image.S16, false, "f32s16",
		func(ctx context.Context, o *cv.Ops, src, dst *image.Mat) error {
			return o.ConvertF32ToS16Ctx(ctx, src, dst)
		}},
}

// checkKernelTable reports a server kernel the benchmark cannot verify.
func checkKernelTable() error {
	for _, k := range serve.KernelNames() {
		if _, ok := serveKernels[k]; !ok {
			return fmt.Errorf("simdperf: server kernel %q has no entry in the benchmark's kernel table", k)
		}
	}
	return nil
}

// dstDims is the destination geometry for a w x h source.
func (k kernelSpec) dstDims(w, h int) (int, int) {
	if k.halfDst {
		return w / 2, h / 2
	}
	return w, h
}

func (k kernelSpec) newDst(w, h int) *image.Mat {
	w, h = k.dstDims(w, h)
	return image.NewMat(w, h, k.dstKind)
}

// synthesize is the server's input synthesis from the request seed.
func synthesize(kind image.Type, w, h int, seed uint64) *image.Mat {
	res := image.Resolution{Width: w, Height: h}
	if kind == image.F32 {
		return image.SyntheticF32(res, seed)
	}
	return image.Synthetic(res, seed)
}

// paperBench is one of the paper's traced kernels with the parameters
// timing.runBench uses.
type paperBench struct {
	name    string
	srcKind image.Type
	dstKind image.Type
	run     func(o *cv.Ops, src, dst *image.Mat) error
}

var paperBenches = []paperBench{
	{"ConvertFloatShort", image.F32, image.S16, func(o *cv.Ops, src, dst *image.Mat) error { return o.ConvertF32ToS16(src, dst) }},
	{"BinThr", image.U8, image.U8, func(o *cv.Ops, src, dst *image.Mat) error {
		return o.Threshold(src, dst, 128, 255, cv.ThreshTrunc)
	}},
	{"GauBlu", image.U8, image.U8, func(o *cv.Ops, src, dst *image.Mat) error { return o.GaussianBlur(src, dst) }},
	{"SobFil", image.U8, image.S16, func(o *cv.Ops, src, dst *image.Mat) error { return o.SobelFilter(src, dst, 1, 0) }},
	{"EdgDet", image.U8, image.U8, func(o *cv.Ops, src, dst *image.Mat) error { return o.DetectEdges(src, dst, 100) }},
}

func paperBenchNamed(name string) (paperBench, bool) {
	for _, b := range paperBenches {
		if b.name == name {
			return b, true
		}
	}
	return paperBench{}, false
}

var isaByName = map[string]cv.ISA{"scalar": cv.ISAScalar, "neon": cv.ISANEON, "sse2": cv.ISASSE2}

// checksum is the server's response checksum: a 64-bit FNV-1a fold over
// the destination elements.
func checksum(m *image.Mat) uint64 {
	const prime = 1099511628211
	sum := uint64(14695981039346656037)
	switch m.Kind {
	case image.U8:
		for _, v := range m.U8Pix {
			sum = (sum ^ uint64(v)) * prime
		}
	case image.S16:
		for _, v := range m.S16Pix {
			sum = (sum ^ uint64(uint16(v))) * prime
		}
	case image.F32:
		for _, v := range m.F32Pix {
			sum = (sum ^ uint64(math.Float32bits(v))) * prime
		}
	}
	return sum
}

// processURL is the /process request the load generator sends.
func processURL(r Request, w, h, deadlineMS int) string {
	q := url.Values{}
	q.Set("kernel", r.Kernel)
	q.Set("isa", r.ISA)
	q.Set("width", strconv.Itoa(w))
	q.Set("height", strconv.Itoa(h))
	q.Set("seed", strconv.FormatUint(r.Seed, 10))
	if deadlineMS > 0 {
		q.Set("deadline_ms", strconv.Itoa(deadlineMS))
	}
	return "/process?" + q.Encode()
}
