package simdstudy_test

import (
	"fmt"

	"simdstudy"
)

// ExampleNewOps runs the paper's threshold benchmark through both code
// paths and shows they agree.
func ExampleNewOps() {
	res := simdstudy.Resolution{Width: 64, Height: 48}
	src := simdstudy.Synthetic(res, 1)
	a := simdstudy.NewMat(res.Width, res.Height, simdstudy.U8)
	b := simdstudy.NewMat(res.Width, res.Height, simdstudy.U8)

	scalar := simdstudy.NewOps(simdstudy.ISAScalar, nil)
	_ = scalar.Threshold(src, a, 128, 255, simdstudy.ThreshTrunc)

	neon := simdstudy.NewOps(simdstudy.ISANEON, nil)
	_ = neon.Threshold(src, b, 128, 255, simdstudy.ThreshTrunc)

	fmt.Println("identical:", a.EqualTo(b))
	// Output: identical: true
}

// ExampleNewTrace shows dynamic instruction accounting: the hand NEON
// convert loop retires exactly 14 instructions per 8 pixels (the paper's
// Section V count).
func ExampleNewTrace() {
	res := simdstudy.Resolution{Width: 64, Height: 1}
	src := simdstudy.SyntheticF32(res, 1)
	dst := simdstudy.NewMat(res.Width, res.Height, simdstudy.S16)

	tr := simdstudy.NewTrace()
	ops := simdstudy.NewOps(simdstudy.ISANEON, tr)
	_ = ops.ConvertF32ToS16(src, dst)

	fmt.Printf("%.2f instructions per pixel\n", float64(tr.Total())/64)
	// Output: 1.75 instructions per pixel
}

// ExampleEstimateRun asks the timing model for the paper's headline
// number: the Exynos 3110's convert speedup, AUTO time over HAND time.
func ExampleEstimateRun() {
	p, _ := simdstudy.PlatformByName("Exynos 3110")
	auto, _ := simdstudy.EstimateRun(p, "ConvertFloatShort", simdstudy.Res8MP, simdstudy.Auto)
	hand, _ := simdstudy.EstimateRun(p, "ConvertFloatShort", simdstudy.Res8MP, simdstudy.Hand)
	fmt.Printf("hand NEON is %.0fx faster than auto-vectorized\n", auto.Seconds/hand.Seconds)
	// Output: hand NEON is 14x faster than auto-vectorized
}

// ExampleNewNEON writes a tiny custom kernel directly against the
// intrinsic API.
func ExampleNewNEON() {
	u := simdstudy.NewNEON(nil)
	a := []float32{1, 2, 3, 4}
	b := []float32{10, 20, 30, 40}
	out := make([]float32, 4)
	u.Vst1qF32(out, u.VaddqF32(u.Vld1qF32(a), u.Vld1qF32(b)))
	fmt.Println(out)
	// Output: [11 22 33 44]
}

// ExampleVectorizeDecisions prints why the convert loop defeats the
// auto-vectorizer.
func ExampleVectorizeDecisions() {
	ds, _ := simdstudy.VectorizeDecisions("ConvertFloatShort", simdstudy.TargetNEON)
	fmt.Println(ds[0].Vectorized, "-", ds[0].Reason)
	// Output: false - function call in loop body (cvRound lowers to lrint / opaque builtin)
}
