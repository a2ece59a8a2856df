// Package serve is the hardened HTTP front-end over the image pipeline:
// a bounded-admission, deadline-aware server that dispatches the guarded
// SIMD kernels and degrades to scalar through the per-(kernel, ISA)
// circuit breakers instead of failing requests.
package serve

import (
	"context"
	"fmt"
	"math"
	"net/url"
	"sort"
	"strconv"
	"time"

	"simdstudy/internal/cv"
	"simdstudy/internal/image"
	"simdstudy/internal/par"
)

// maxDim bounds a single request dimension before the pixel-count check,
// so width*height cannot overflow and a single hostile parameter cannot
// request a gigabyte-scale allocation.
const maxDim = 1 << 20

// Limits are the decoder-side resource bounds. The zero value is not
// usable; Config.limits fills defaults.
type Limits struct {
	MaxPixels       int           // ceiling on width*height
	DefaultDeadline time.Duration // applied when deadline_ms is absent
	MaxDeadline     time.Duration // ceiling on client-requested deadlines
}

// Request is one decoded kernel-dispatch request.
type Request struct {
	Kernel   string // canonical kernel name, e.g. "GaussianBlur"
	ISA      cv.ISA
	Width    int
	Height   int
	Seed     uint64
	Deadline time.Duration
}

// kernelSpec wires a request kernel name to the pipeline: source and
// destination plane types, destination geometry, the fixed-parameter
// signature the memoization key carries, and the context-aware entry
// point.
type kernelSpec struct {
	name    string // canonical name; must match the kernel name of the cv call frame
	srcKind image.Type
	dstKind image.Type
	halfDst bool // destination is w/2 x h/2 (ResizeHalf)
	// sig names the parameters baked into run below. It participates in
	// the memo request key, so if a threshold here ever changes, old
	// cached results become unreachable instead of wrong.
	sig string
	run func(ctx context.Context, o *cv.Ops, src, dst *image.Mat) error
}

// dstDims returns the destination geometry for a w x h source.
func (k kernelSpec) dstDims(w, h int) (int, int) {
	if k.halfDst {
		return w / 2, h / 2
	}
	return w, h
}

// dst takes the zeroed destination plane from the par recycler, rejecting
// degenerate geometry with image.TryNewMat's message. The caller returns
// it with par.PutMat.
func (k kernelSpec) dst(w, h int) (*image.Mat, error) {
	dw, dh := k.dstDims(w, h)
	if dw < 1 || dh < 1 {
		return nil, fmt.Errorf("image: invalid dimensions %dx%d", dw, dh)
	}
	return par.GetMat(dw, dh, k.dstKind), nil
}

var kernels = map[string]kernelSpec{
	"gaussian": {
		name: "GaussianBlur", srcKind: image.U8, dstKind: image.U8, sig: "g5x5",
		run: func(ctx context.Context, o *cv.Ops, src, dst *image.Mat) error {
			return o.GaussianBlurCtx(ctx, src, dst)
		},
	},
	"sobel": {
		name: "SobelFilter", srcKind: image.U8, dstKind: image.S16, sig: "dx1dy0",
		run: func(ctx context.Context, o *cv.Ops, src, dst *image.Mat) error {
			return o.SobelFilterCtx(ctx, src, dst, 1, 0)
		},
	},
	"edges": {
		name: "DetectEdges", srcKind: image.U8, dstKind: image.U8, sig: "t128",
		run: func(ctx context.Context, o *cv.Ops, src, dst *image.Mat) error {
			return o.DetectEdgesCtx(ctx, src, dst, 128)
		},
	},
	"canny": {
		name: "Canny", srcKind: image.U8, dstKind: image.U8, sig: "lo60hi200",
		run: func(ctx context.Context, o *cv.Ops, src, dst *image.Mat) error {
			return o.CannyCtx(ctx, src, dst, 60, 200)
		},
	},
	"median": {
		name: "MedianBlur3x3", srcKind: image.U8, dstKind: image.U8, sig: "3x3",
		run: func(ctx context.Context, o *cv.Ops, src, dst *image.Mat) error {
			return o.MedianBlur3x3Ctx(ctx, src, dst)
		},
	},
	"resize": {
		name: "ResizeHalf", srcKind: image.U8, dstKind: image.U8, halfDst: true, sig: "half",
		run: func(ctx context.Context, o *cv.Ops, src, dst *image.Mat) error {
			return o.ResizeHalfCtx(ctx, src, dst)
		},
	},
	"threshold": {
		name: "Threshold", srcKind: image.U8, dstKind: image.U8, sig: "t128m255bin",
		run: func(ctx context.Context, o *cv.Ops, src, dst *image.Mat) error {
			return o.ThresholdCtx(ctx, src, dst, 128, 255, cv.ThreshBinary)
		},
	},
	"convert": {
		name: "ConvertF32ToS16", srcKind: image.F32, dstKind: image.S16, sig: "f32s16",
		run: func(ctx context.Context, o *cv.Ops, src, dst *image.Mat) error {
			return o.ConvertF32ToS16Ctx(ctx, src, dst)
		},
	},
}

// KernelNames returns the request kernel names the decoder accepts,
// sorted.
func KernelNames() []string {
	names := make([]string, 0, len(kernels))
	for k := range kernels {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func parseISA(s string) (cv.ISA, error) {
	switch s {
	case "", "neon":
		return cv.ISANEON, nil
	case "sse2":
		return cv.ISASSE2, nil
	case "scalar":
		return cv.ISAScalar, nil
	}
	return 0, fmt.Errorf("unknown isa %q (want scalar, neon, or sse2)", s)
}

func parseDim(q url.Values, key string) (int, error) {
	raw := q.Get(key)
	if raw == "" {
		return 0, fmt.Errorf("missing required parameter %q", key)
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q: not an integer", key, raw)
	}
	if n < 1 || n > maxDim {
		return 0, fmt.Errorf("bad %s %d: want 1..%d", key, n, maxDim)
	}
	return n, nil
}

// ParseRequest decodes and bounds one request from URL query parameters.
// Every failure is a client error (HTTP 400); nothing is allocated from
// request-controlled sizes before the bounds checks pass.
func ParseRequest(q url.Values, lim Limits) (Request, error) {
	var r Request

	kernel := q.Get("kernel")
	if _, ok := kernels[kernel]; !ok {
		return r, fmt.Errorf("unknown kernel %q (want one of %v)", kernel, KernelNames())
	}
	r.Kernel = kernel

	w, err := parseDim(q, "width")
	if err != nil {
		return r, err
	}
	h, err := parseDim(q, "height")
	if err != nil {
		return r, err
	}
	if int64(w)*int64(h) > int64(lim.MaxPixels) {
		return r, fmt.Errorf("image %dx%d exceeds the %d pixel limit", w, h, lim.MaxPixels)
	}
	r.Width, r.Height = w, h

	r.ISA, err = parseISA(q.Get("isa"))
	if err != nil {
		return r, err
	}

	r.Seed = 1
	if raw := q.Get("seed"); raw != "" {
		r.Seed, err = strconv.ParseUint(raw, 10, 64)
		if err != nil {
			return r, fmt.Errorf("bad seed %q: not an unsigned integer", raw)
		}
	}

	r.Deadline = lim.DefaultDeadline
	if raw := q.Get("deadline_ms"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms <= 0 {
			return r, fmt.Errorf("bad deadline_ms %q: want a positive integer", raw)
		}
		r.Deadline = time.Duration(ms) * time.Millisecond
	}
	if r.Deadline > lim.MaxDeadline {
		r.Deadline = lim.MaxDeadline
	}
	return r, nil
}

// checksum folds a destination plane into one comparable value so clients
// (and the load generator) can spot nondeterminism across ISA paths.
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
