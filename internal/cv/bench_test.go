package cv

import (
	"context"
	"fmt"
	"testing"

	"simdstudy/internal/image"
)

// Host-side microbenchmarks of each kernel per path (emulation cost).

func benchKernel(b *testing.B, isa ISA, run func(o *Ops) error) {
	o := NewOps(isa, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(o); err != nil {
			b.Fatal(err)
		}
	}
}

var benchRes = image.Resolution{Width: 320, Height: 240}

func BenchmarkConvert(b *testing.B) {
	src := image.SyntheticF32(benchRes, 1)
	dst := image.NewMat(benchRes.Width, benchRes.Height, image.S16)
	run := func(o *Ops) error { return o.ConvertF32ToS16(src, dst) }
	b.Run("scalar", func(b *testing.B) { benchKernel(b, ISAScalar, run) })
	b.Run("neon", func(b *testing.B) { benchKernel(b, ISANEON, run) })
	b.Run("sse2", func(b *testing.B) { benchKernel(b, ISASSE2, run) })
}

func BenchmarkThreshold(b *testing.B) {
	src := image.Synthetic(benchRes, 1)
	dst := image.NewMat(benchRes.Width, benchRes.Height, image.U8)
	run := func(o *Ops) error { return o.Threshold(src, dst, 128, 255, ThreshTrunc) }
	b.Run("scalar", func(b *testing.B) { benchKernel(b, ISAScalar, run) })
	b.Run("neon", func(b *testing.B) { benchKernel(b, ISANEON, run) })
	b.Run("sse2", func(b *testing.B) { benchKernel(b, ISASSE2, run) })
}

func BenchmarkGaussian(b *testing.B) {
	src := image.Synthetic(benchRes, 1)
	dst := image.NewMat(benchRes.Width, benchRes.Height, image.U8)
	run := func(o *Ops) error { return o.GaussianBlur(src, dst) }
	b.Run("scalar", func(b *testing.B) { benchKernel(b, ISAScalar, run) })
	b.Run("neon", func(b *testing.B) { benchKernel(b, ISANEON, run) })
	b.Run("sse2", func(b *testing.B) { benchKernel(b, ISASSE2, run) })
}

func BenchmarkSobel(b *testing.B) {
	src := image.Synthetic(benchRes, 1)
	dst := image.NewMat(benchRes.Width, benchRes.Height, image.S16)
	run := func(o *Ops) error { return o.SobelFilter(src, dst, 1, 0) }
	b.Run("scalar", func(b *testing.B) { benchKernel(b, ISAScalar, run) })
	b.Run("neon", func(b *testing.B) { benchKernel(b, ISANEON, run) })
	b.Run("sse2", func(b *testing.B) { benchKernel(b, ISASSE2, run) })
}

func BenchmarkEdges(b *testing.B) {
	src := image.Synthetic(benchRes, 1)
	dst := image.NewMat(benchRes.Width, benchRes.Height, image.U8)
	run := func(o *Ops) error { return o.DetectEdges(src, dst, 100) }
	b.Run("scalar", func(b *testing.B) { benchKernel(b, ISAScalar, run) })
	b.Run("neon", func(b *testing.B) { benchKernel(b, ISANEON, run) })
	b.Run("sse2", func(b *testing.B) { benchKernel(b, ISASSE2, run) })
}

func BenchmarkMedian(b *testing.B) {
	src := image.Synthetic(benchRes, 1)
	dst := image.NewMat(benchRes.Width, benchRes.Height, image.U8)
	run := func(o *Ops) error { return o.MedianBlur3x3Ctx(context.Background(), src, dst) }
	b.Run("scalar", func(b *testing.B) { benchKernel(b, ISAScalar, run) })
	b.Run("neon", func(b *testing.B) { benchKernel(b, ISANEON, run) })
	b.Run("sse2", func(b *testing.B) { benchKernel(b, ISASSE2, run) })
}

func BenchmarkRGBToGray(b *testing.B) {
	src := image.SyntheticRGB(benchRes, 1)
	dst := image.NewMat(benchRes.Width, benchRes.Height, image.U8)
	run := func(o *Ops) error { return o.RGBToGray(src, dst) }
	b.Run("scalar", func(b *testing.B) { benchKernel(b, ISAScalar, run) })
	b.Run("neon", func(b *testing.B) { benchKernel(b, ISANEON, run) })
}

func BenchmarkResizeHalf(b *testing.B) {
	src := image.Synthetic(benchRes, 1)
	dst := image.NewMat(benchRes.Width/2, benchRes.Height/2, image.U8)
	run := func(o *Ops) error { return o.ResizeHalfCtx(context.Background(), src, dst) }
	b.Run("scalar", func(b *testing.B) { benchKernel(b, ISAScalar, run) })
	b.Run("neon", func(b *testing.B) { benchKernel(b, ISANEON, run) })
	b.Run("sse2", func(b *testing.B) { benchKernel(b, ISASSE2, run) })
}

func BenchmarkCanny(b *testing.B) {
	src := image.Synthetic(benchRes, 1)
	dst := image.NewMat(benchRes.Width, benchRes.Height, image.U8)
	run := func(o *Ops) error { return o.Canny(src, dst, 100, 300) }
	b.Run("scalar", func(b *testing.B) { benchKernel(b, ISAScalar, run) })
	b.Run("neon", func(b *testing.B) { benchKernel(b, ISANEON, run) })
	b.Run("sse2", func(b *testing.B) { benchKernel(b, ISASSE2, run) })
}

// BenchmarkHostCannyTail times the Canny stages that follow the gradients
// — magnitude, non-maximum suppression and hysteresis — on their own, at
// 0.3 and 5 Mpx. They are the same scalar code on every ISA, so they set
// the floor under every Canny call. The gradient planes are made once,
// outside the timer, and one warmup call fills the pools: CI holds the
// timed loop at 0 allocs/op.
func BenchmarkHostCannyTail(b *testing.B) {
	for _, res := range []image.Resolution{{Width: 640, Height: 480}, {Width: 2592, Height: 1920}} {
		b.Run(fmt.Sprintf("%dx%d", res.Width, res.Height), func(b *testing.B) {
			w, h := res.Width, res.Height
			src := image.Synthetic(res, 1)
			gx, gy := image.NewMat(w, h, image.S16), image.NewMat(w, h, image.S16)
			nms, dst := image.NewMat(w, h, image.U8), image.NewMat(w, h, image.U8)
			o := NewOps(ISANEON, nil)
			if err := o.SobelFilter(src, gx, 1, 0); err != nil {
				b.Fatal(err)
			}
			if err := o.SobelFilter(src, gy, 0, 1); err != nil {
				b.Fatal(err)
			}
			tail := func() {
				o.cannyMagNMS(gx, gy, nms, 60, 200)
				o.cannyHysteresis(nms.U8Pix, dst.U8Pix, w, h)
			}
			tail()
			b.SetBytes(int64(src.Bytes()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tail()
			}
		})
	}
}
