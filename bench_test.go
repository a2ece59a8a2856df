// Benchmark harness: one testing.B benchmark per paper table and figure.
//
// Each BenchmarkTableN/BenchmarkFigureN regenerates the corresponding
// artifact; run with -v (or see cmd/tablegen, cmd/figuregen) to print the
// rendered output. The Host* benchmarks measure this library's own
// emulation-layer throughput on the host machine, and the Ablation*
// benchmarks exercise the design-choice studies listed in DESIGN.md.
package simdstudy

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"simdstudy/internal/harness"
	"simdstudy/internal/image"
	"simdstudy/internal/memo"
	"simdstudy/internal/par"
	"simdstudy/internal/platform"
	"simdstudy/internal/serve"
	"simdstudy/internal/sse2"
	"simdstudy/internal/timing"
	"simdstudy/internal/vectorizer"
)

var renderMu sync.Mutex

// BenchmarkTable1_Platforms regenerates Table I (platform catalogue).
func BenchmarkTable1_Platforms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		RenderTable1(&buf, Platforms())
		if buf.Len() == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2_ConvertFloatShort regenerates Table II: float-to-short
// conversion times for 10 platforms x 4 sizes x AUTO/HAND.
func BenchmarkTable2_ConvertFloatShort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := RunGrid("ConvertFloatShort", Platforms(), Resolutions())
		if err != nil {
			b.Fatal(err)
		}
		renderMu.Lock()
		var buf bytes.Buffer
		g.RenderTable2(&buf)
		renderMu.Unlock()
		if i == 0 {
			b.Log("\n" + buf.String())
		}
	}
}

// benchTable3 regenerates one Table III row group (a benchmark at 8 Mpx).
func benchTable3(b *testing.B, bench string) {
	sizes := []image.Resolution{image.Res8MP}
	for i := 0; i < b.N; i++ {
		g, err := RunGrid(bench, Platforms(), sizes)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			harness.RenderTable3(&buf, []*harness.Grid{g})
			b.Log("\n" + buf.String())
		}
	}
}

// BenchmarkTable3_BinThr regenerates Table III's binary thresholding rows.
func BenchmarkTable3_BinThr(b *testing.B) { benchTable3(b, "BinThr") }

// BenchmarkTable3_GauBlu regenerates Table III's Gaussian blur rows.
func BenchmarkTable3_GauBlu(b *testing.B) { benchTable3(b, "GauBlu") }

// BenchmarkTable3_SobFil regenerates Table III's Sobel filter rows.
func BenchmarkTable3_SobFil(b *testing.B) { benchTable3(b, "SobFil") }

// BenchmarkTable3_EdgDet regenerates Table III's edge detection rows.
func BenchmarkTable3_EdgDet(b *testing.B) { benchTable3(b, "EdgDet") }

// benchFigure regenerates one speedup figure (speedups across all sizes
// and platforms for a benchmark).
func benchFigure(b *testing.B, number int) {
	bench := harness.FigureForBench[number]
	for i := 0; i < b.N; i++ {
		g, err := RunGrid(bench, Platforms(), Resolutions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			g.RenderFigure(&buf, number)
			b.Log("\n" + buf.String())
		}
	}
}

// BenchmarkFigure2_ConvertSpeedups regenerates Figure 2.
func BenchmarkFigure2_ConvertSpeedups(b *testing.B) { benchFigure(b, 2) }

// BenchmarkFigure3_ThresholdSpeedups regenerates Figure 3.
func BenchmarkFigure3_ThresholdSpeedups(b *testing.B) { benchFigure(b, 3) }

// BenchmarkFigure4_GaussianSpeedups regenerates Figure 4.
func BenchmarkFigure4_GaussianSpeedups(b *testing.B) { benchFigure(b, 4) }

// BenchmarkFigure5_SobelSpeedups regenerates Figure 5.
func BenchmarkFigure5_SobelSpeedups(b *testing.B) { benchFigure(b, 5) }

// BenchmarkFigure6_EdgeSpeedups regenerates Figure 6.
func BenchmarkFigure6_EdgeSpeedups(b *testing.B) { benchFigure(b, 6) }

// BenchmarkFigure1_ScalarVsSIMDAdd reproduces Figure 1's point: adding two
// 4-element vectors takes 16 scalar instructions but 4 SIMD instructions.
func BenchmarkFigure1_ScalarVsSIMDAdd(b *testing.B) {
	a := []float32{1, 2, 3, 4}
	c := []float32{10, 20, 30, 40}
	out := make([]float32, 4)
	b.Run("scalar16instrs", func(b *testing.B) {
		tr := NewTrace()
		for i := 0; i < b.N; i++ {
			for j := 0; j < 4; j++ {
				out[j] = a[j] + c[j]
			}
		}
		_ = tr
	})
	b.Run("simd4instrs", func(b *testing.B) {
		u := NewNEON(nil)
		for i := 0; i < b.N; i++ {
			va := u.Vld1qF32(a)
			vc := u.Vld1qF32(c)
			u.Vst1qF32(out, u.VaddqF32(va, vc))
		}
	})
}

// --- Host microbenchmarks of the emulation layers ---

func hostKernelSrc() (*Mat, *Mat) {
	res := Resolution{Width: 640, Height: 480}
	return SyntheticF32(res, 1), NewMat(640, 480, S16)
}

// BenchmarkHostConvertScalar measures the scalar reference on the host.
func BenchmarkHostConvertScalar(b *testing.B) {
	src, dst := hostKernelSrc()
	o := NewOps(ISAScalar, nil)
	b.SetBytes(int64(src.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := o.ConvertF32ToS16(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostConvertNEONEmu measures the emulated NEON kernel on the
// host (this is emulation cost, not modeled device time).
func BenchmarkHostConvertNEONEmu(b *testing.B) {
	src, dst := hostKernelSrc()
	o := NewOps(ISANEON, nil)
	b.SetBytes(int64(src.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := o.ConvertF32ToS16(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostConvertSSE2Emu measures the emulated SSE2 kernel.
func BenchmarkHostConvertSSE2Emu(b *testing.B) {
	src, dst := hostKernelSrc()
	o := NewOps(ISASSE2, nil)
	b.SetBytes(int64(src.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := o.ConvertF32ToS16(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostConvertAuditedOff measures the emulated NEON kernel with a
// redundant-execution auditor attached but sampling nothing (rate 0) — the
// configuration production code pays when auditing is compiled in and
// switched off. The CI alloc gate (benchjson -fail-allocs
// '^BenchmarkHostConvert') holds this at 0 allocs/op: the skip path of the
// audit chokepoint must not allocate.
func BenchmarkHostConvertAuditedOff(b *testing.B) {
	src, dst := hostKernelSrc()
	o := NewOps(ISANEON, nil)
	o.SetAuditor(NewAuditor(AuditConfig{Rate: 0, Seed: 1}))
	b.SetBytes(int64(src.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := o.ConvertF32ToS16(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMemoConvert builds the 5 Mpx conversion workload the memoization
// benchmarks share: the acceptance floor is a verified cache hit at least
// 5x faster than recomputing this kernel at 2592x1920.
func benchMemoConvert() (src, dst *Mat, o *Ops) {
	src = SyntheticF32(Res5MP, 1)
	dst = NewMat(Res5MP.Width, Res5MP.Height, S16)
	o = NewOps(ISANEON, nil)
	return src, dst, o
}

// BenchmarkHostConvertMemoCompute is the memoization baseline: direct
// kernel execution of the 5 Mpx conversion, the cost a cache miss pays.
func BenchmarkHostConvertMemoCompute(b *testing.B) {
	src, dst, o := benchMemoConvert()
	b.SetBytes(int64(src.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := o.ConvertF32ToS16(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostConvertMemoHit measures a verified cache hit on the same
// workload: checksum the stored plane, copy it into dst. The CI alloc
// gate (benchjson -fail-allocs '^BenchmarkHostConvert') holds this at
// 0 allocs/op — the hit path must not allocate.
func BenchmarkHostConvertMemoHit(b *testing.B) {
	src, dst, o := benchMemoConvert()
	cache := NewMemoCache(MemoConfig{MaxBytes: 256 << 20, Shards: 1})
	key := MemoKeyFor("ConvertF32ToS16", "neon", "f32s16", src)
	ctx := context.Background()
	compute := func(context.Context) error { return o.ConvertF32ToS16(src, dst) }
	if _, err := cache.Do(ctx, key, dst, compute); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(dst.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outcome, err := cache.Do(ctx, key, dst, compute)
		if err != nil {
			b.Fatal(err)
		}
		if outcome != MemoHit {
			b.Fatalf("outcome = %v; want hit", outcome)
		}
	}
}

// BenchmarkHostServeMemoHit measures a warm memo hit served end to end
// through simdserved's handler: gaussian, NEON, 640x480. A hit is keyed
// on the request and answered from the stored response checksum, so it
// synthesizes no input and touches no plane. Interleaved off the clock,
// the same request runs on a memo-off server, and x-compute reports that
// compute time over the hit time. CI fails below 50; a hit that
// synthesizes and content-hashes its input, then copies and re-checksums
// a cached plane, measures about 6. The twin runs at most about 50 times
// per round, so a long -benchtime does not multiply its 15 ms.
func BenchmarkHostServeMemoHit(b *testing.B) {
	const url = "/process?kernel=gaussian&width=640&height=480&isa=neon&seed=1"
	hit := serve.NewServer(serve.Config{Memo: memo.Config{MaxBytes: 32 << 20}})
	compute := serve.NewServer(serve.Config{})
	defer hit.Close()
	defer compute.Close()
	hHit, hCompute := hit.Handler(), compute.Handler()
	get := func(h http.Handler) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: %d: %s", url, rec.Code, rec.Body.Bytes())
		}
		return rec.Header().Get("X-Memo")
	}
	get(hHit) // warm: the miss stores the entry
	stride := max(1, b.N/50)
	var tTwin, tTimed time.Duration
	twins := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%stride == 0 {
			b.StopTimer()
			t0 := time.Now()
			get(hCompute)
			tTwin += time.Since(t0)
			twins++
			b.StartTimer()
		}
		t0 := time.Now()
		if out := get(hHit); out != "hit" {
			b.Fatalf("X-Memo = %q; want hit", out)
		}
		tTimed += time.Since(t0)
	}
	b.ReportMetric((float64(tTwin)/float64(twins))/(float64(tTimed)/float64(b.N)), "x-compute")
}

// BenchmarkHostGaussianNEONEmu measures the heaviest kernel end to end.
func BenchmarkHostGaussianNEONEmu(b *testing.B) {
	res := Resolution{Width: 640, Height: 480}
	src := Synthetic(res, 1)
	dst := NewMat(640, 480, U8)
	o := NewOps(ISANEON, nil)
	b.SetBytes(int64(src.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := o.GaussianBlur(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostGuardedGaussianNEONEmu / BenchmarkHostGuardedMedianNEONEmu
// time a 640x480 emulated NEON kernel under the default guard: SIMD run,
// scalar referee of the 8 sampled rows plus their stencil halo,
// spot-check. x-unguarded reports guarded over unguarded time. CI fails
// when either exceeds 1.10, as a referee that recomputes the full scalar
// plane on every call does (1.3-1.5x).
func BenchmarkHostGuardedGaussianNEONEmu(b *testing.B) {
	benchHostGuarded(b, (*Ops).GaussianBlur)
}

func BenchmarkHostGuardedMedianNEONEmu(b *testing.B) {
	benchHostGuarded(b, medianBlur)
}

// medianBlur is the median entry point in the (o, src, dst) shape the twin
// benchmarks take.
func medianBlur(o *Ops, src, dst *Mat) error {
	return o.MedianBlur3x3Ctx(context.Background(), src, dst)
}

func benchHostGuarded(b *testing.B, run func(o *Ops, src, dst *Mat) error) {
	guarded := NewOps(ISANEON, nil)
	guarded.SetGuarded(true)
	benchHostTwin(b, run, U8, guarded, NewOps(ISANEON, nil), "x-unguarded")
}

// BenchmarkHostMedianNEONEmu times the 640x480 emulated NEON median, the
// kernel whose emulated min/max lanes cost most, and x-scalar reports its
// time over the scalar build's. CI fails above 1.5: per-lane branches on
// pixel data or an out-of-line fault-hook call per intrinsic measure
// 2.2-2.4x.
func BenchmarkHostMedianNEONEmu(b *testing.B) {
	benchHostTwin(b, medianBlur, U8, NewOps(ISANEON, nil), NewOps(ISAScalar, nil), "x-scalar")
}

// BenchmarkHostSobelNEONEmu times the 640x480 emulated NEON x-gradient
// Sobel, a 16-bit stencil: widening subtracts, then int16 adds and shifts
// over S16 rows. x-scalar reports its time over the scalar build's. CI
// fails above 3.0: with registers passed in memory and a lane loop per
// 16-bit op it measured 7-9x.
func BenchmarkHostSobelNEONEmu(b *testing.B) {
	sobelX := func(o *Ops, src, dst *Mat) error { return o.SobelFilter(src, dst, 1, 0) }
	benchHostTwin(b, sobelX, S16, NewOps(ISANEON, nil), NewOps(ISAScalar, nil), "x-scalar")
}

// benchHostTwin times run on a 640x480 image with timed, into a destination
// of kind dstKind. Each iteration also runs it with twin, off the benchmark
// clock, and reports timed over twin time as metric; interleaving the two
// keeps host drift out of the ratio.
func benchHostTwin(b *testing.B, run func(o *Ops, src, dst *Mat) error, dstKind image.Type, timed, twin *Ops, metric string) {
	res := Resolution{Width: 640, Height: 480}
	src := Synthetic(res, 1)
	dst := NewMat(640, 480, dstKind)
	var tTwin, tTimed time.Duration
	b.SetBytes(int64(src.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t0 := time.Now()
		if err := run(twin, src, dst); err != nil {
			b.Fatal(err)
		}
		tTwin += time.Since(t0)
		b.StartTimer()
		t0 = time.Now()
		if err := run(timed, src, dst); err != nil {
			b.Fatal(err)
		}
		tTimed += time.Since(t0)
	}
	b.ReportMetric(float64(tTimed)/float64(tTwin), metric)
}

// benchHostPipeline measures a multi-stage kernel end to end, staged or
// fused, at 0.3 Mpx and at the paper's 5 Mpx class. One warmup call per
// size outside the timer fills the strip-window pools and the cached strip
// geometry, so the timed loop exposes the steady-state allocation behavior
// the CI gate holds at zero.
func benchHostPipeline(b *testing.B, fuse bool, run func(o *Ops, src, dst *Mat) error) {
	for _, res := range []Resolution{
		{Width: 640, Height: 480},
		{Width: 2592, Height: 1920},
	} {
		b.Run(fmt.Sprintf("%dx%d", res.Width, res.Height), func(b *testing.B) {
			src := Synthetic(res, 1)
			dst := NewMat(res.Width, res.Height, U8)
			o := NewOps(ISANEON, nil)
			if fuse {
				o.SetFuse(FuseConfig{Enabled: true})
			}
			if err := run(o, src, dst); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(src.Bytes()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := run(o, src, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func hostCanny(o *Ops, src, dst *Mat) error { return o.Canny(src, dst, 60, 200) }
func hostEdges(o *Ops, src, dst *Mat) error { return o.DetectEdges(src, dst, 100) }

// BenchmarkHostCannyStaged / BenchmarkHostCannyFused compare the staged
// and cache-blocked fused execution of the 6-stage Canny pipeline on the
// emulated NEON path. Outputs are byte-identical (TestFusedMatchesStaged);
// the fused sweep trades full intermediate planes for pooled strip
// windows, so both must hold 0 allocs/op under the CI gate.
func BenchmarkHostCannyStaged(b *testing.B) { benchHostPipeline(b, false, hostCanny) }

func BenchmarkHostCannyFused(b *testing.B) { benchHostPipeline(b, true, hostCanny) }

// BenchmarkHostDetectEdgesStaged / Fused do the same for the 5-stage
// Sobel-magnitude-threshold pipeline.
func BenchmarkHostDetectEdgesStaged(b *testing.B) { benchHostPipeline(b, false, hostEdges) }

func BenchmarkHostDetectEdgesFused(b *testing.B) { benchHostPipeline(b, true, hostEdges) }

// BenchmarkHostTraceOverhead quantifies instruction-accounting cost by
// running the same kernel with and without a trace attached, for both
// emulated ISAs on an elementwise kernel (Threshold) and a stencil one
// (GaussianBlur). Each traced/untraced pair shares a prefix; CI fails when
// any pair's ns/op ratio exceeds 1.5 or a traced run allocates.
func BenchmarkHostTraceOverhead(b *testing.B) {
	res := Resolution{Width: 640, Height: 480}
	src := Synthetic(res, 1)
	dst := NewMat(640, 480, U8)
	kernels := []struct {
		name string
		run  func(o *Ops) error
	}{
		{"threshold", func(o *Ops) error { return o.Threshold(src, dst, 128, 255, ThreshTrunc) }},
		{"gaussian", func(o *Ops) error { return o.GaussianBlur(src, dst) }},
	}
	for _, isa := range []ISA{ISANEON, ISASSE2} {
		for _, k := range kernels {
			for _, traced := range []bool{false, true} {
				name := fmt.Sprintf("%v/%s/untraced", isa, k.name)
				var tr *Trace
				if traced {
					name = fmt.Sprintf("%v/%s/traced", isa, k.name)
					tr = NewTrace()
				}
				o := NewOps(isa, tr)
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if err := k.run(o); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// --- Ablations (DESIGN.md design-choice studies) ---

// BenchmarkAblationAVXvsSSE2 compares the 8-wide AVX convert path against
// the paper's 4-wide SSE2 path on instruction count, reproducing the
// paper's related-work observation that AVX delivers 1.58-1.88x over SSE
// on compute-bound kernels.
func BenchmarkAblationAVXvsSSE2(b *testing.B) {
	src := make([]float32, 1024)
	dst := make([]int16, 1024)
	for i := range src {
		src[i] = float32(i) - 512.5
	}
	b.Run("sse2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			u := sse2.New(nil)
			for x := 0; x+8 <= len(src); x += 8 {
				lo := u.CvtpsEpi32(u.LoaduPs(src[x:]))
				hi := u.CvtpsEpi32(u.LoaduPs(src[x+4:]))
				u.StoreuSi128S16(dst[x:], u.PacksEpi32(lo, hi))
			}
		}
	})
	b.Run("avx", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			u := sse2.New(nil)
			for x := 0; x+16 <= len(src); x += 16 {
				lo := u.Cvt256PsEpi32(u.Loadu256Ps(src[x:]))
				hi := u.Cvt256PsEpi32(u.Loadu256Ps(src[x+8:]))
				u.Storeu256Si256S16(dst[x:], u.Packs256Epi32(lo, hi))
			}
		}
	})
}

// BenchmarkAblationSerializationModel sweeps the timing model's
// compute/memory serialization factor to show it is what separates the
// in-order Atom's convert speedup from the out-of-order Core 2's.
func BenchmarkAblationSerializationModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		atom := platform.AtomD510()
		for _, s := range []float64{0.0, 0.4, 0.8} {
			p := atom
			p.M.Serialization = s
			if _, err := timing.Speedup(p, "ConvertFloatShort", image.Res8MP); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationVectorizerBlockers measures the compiler-model analysis
// itself and exercises every blocker path.
func BenchmarkAblationVectorizerBlockers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bench := range timing.BenchNames {
			for _, target := range []vectorizer.Target{vectorizer.TargetNEON, vectorizer.TargetSSE2} {
				if _, err := timing.Decisions(bench, target); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkCacheTraffic measures the cache-replay traffic estimator.
func BenchmarkCacheTraffic(b *testing.B) {
	p := platform.Exynos4412()
	for i := 0; i < b.N; i++ {
		// Vary width so memoization does not short-circuit the measurement.
		w := 640 + (i%4)*16
		if _, err := timing.TrafficPerPixel("GauBlu", p, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostRGBToGrayNEONEmu measures the structured-load color
// conversion (the related-work Tegra study's showcase kernel).
func BenchmarkHostRGBToGrayNEONEmu(b *testing.B) {
	res := Resolution{Width: 640, Height: 480}
	src := SyntheticRGB(res, 1)
	dst := NewMat(res.Width, res.Height, U8)
	b.Run("scalar", func(b *testing.B) {
		o := NewOps(ISAScalar, nil)
		b.SetBytes(int64(len(src.Pix)))
		for i := 0; i < b.N; i++ {
			if err := o.RGBToGray(src, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("neon", func(b *testing.B) {
		o := NewOps(ISANEON, nil)
		b.SetBytes(int64(len(src.Pix)))
		for i := 0; i < b.N; i++ {
			if err := o.RGBToGray(src, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHostParallel measures row-banded multi-core execution of the
// heaviest kernels at several worker counts on a 1080p frame; workers=1 is
// the serial baseline, so the sub-benchmark ratios are the intra-kernel
// scaling curve (compare with benchstat).
func BenchmarkHostParallel(b *testing.B) {
	res := Resolution{Width: 1920, Height: 1080}
	gsrc := Synthetic(res, 1)
	gdst := NewMat(res.Width, res.Height, U8)
	csrc := SyntheticF32(res, 1)
	cdst := NewMat(res.Width, res.Height, S16)

	type bench struct {
		name string
		run  func(o *Ops) error
	}
	benches := []bench{
		{"Gaussian", func(o *Ops) error { return o.GaussianBlur(gsrc, gdst) }},
		{"Convert", func(o *Ops) error { return o.ConvertF32ToS16(csrc, cdst) }},
		{"Median", func(o *Ops) error { return o.MedianBlur3x3Ctx(context.Background(), gsrc, gdst) }},
	}
	for _, k := range benches {
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", k.name, workers), func(b *testing.B) {
				o := NewOps(ISANEON, nil)
				o.SetParallel(ParallelConfig{Workers: workers})
				b.SetBytes(int64(res.Width * res.Height))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := k.run(o); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkHostSynthesize measures the synthetic-input generator on a
// 5 Mpx plane, filled in place: bands=1 is the path every Synthetic caller
// and a serial server take, bands=2 is what a two-worker server runs on
// the par pool for each request's source plane.
func BenchmarkHostSynthesize(b *testing.B) {
	m := image.NewMat(Res5MP.Width, Res5MP.Height, image.U8)
	run := func(n int, band func(i int)) {
		if p := par.FirstPanic(par.Run(n, band), nil); p != nil {
			panic(p)
		}
	}
	for _, bands := range []int{1, 2} {
		b.Run(fmt.Sprintf("bands=%d", bands), func(b *testing.B) {
			b.SetBytes(int64(m.Bytes()))
			for i := 0; i < b.N; i++ {
				image.SynthesizeInto(m, uint64(i%5+1), bands, run)
			}
		})
	}
}

// BenchmarkExtensionEnergyTable regenerates the performance-per-watt
// extension table (the paper's stated future work).
func BenchmarkExtensionEnergyTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := timing.EnergyTable("EdgDet", platform.Paper(), image.Res8MP)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			timing.RenderEnergyTable(&buf, "EdgDet", image.Res8MP, rows)
			b.Log("\n" + buf.String())
		}
	}
}

// BenchmarkExtensionRelatedWorkKernels measures instruction-count ratios
// (scalar vs NEON) for the three related-work kernels the paper cites from
// the Tegra OpenCV study: median blur (23x), color conversion (9.5x) and
// image resizing (7.6x). Instruction ratio is the first-order driver of
// those observed speedups on the in-order-issue NEON pipeline.
func BenchmarkExtensionRelatedWorkKernels(b *testing.B) {
	res := Resolution{Width: 320, Height: 240}
	src := Synthetic(res, 1)
	rgb := SyntheticRGB(res, 1)
	dst := NewMat(res.Width, res.Height, U8)
	half := NewMat(res.Width/2, res.Height/2, U8)

	type kernel struct {
		name string
		run  func(o *Ops) error
	}
	kernels := []kernel{
		{"median23x", func(o *Ops) error { return o.MedianBlur3x3Ctx(context.Background(), src, dst) }},
		{"gray9.5x", func(o *Ops) error { return o.RGBToGray(rgb, dst) }},
		{"resize7.6x", func(o *Ops) error { return o.ResizeHalfCtx(context.Background(), src, half) }},
	}
	for i := 0; i < b.N; i++ {
		for _, k := range kernels {
			scalarTr, neonTr := NewTrace(), NewTrace()
			os := NewOps(ISAScalar, scalarTr)
			if err := k.run(os); err != nil {
				b.Fatal(err)
			}
			on := NewOps(ISANEON, neonTr)
			if err := k.run(on); err != nil {
				b.Fatal(err)
			}
			ratio := float64(scalarTr.Total()) / float64(neonTr.Total())
			if ratio <= 1 {
				b.Fatalf("%s: NEON must retire fewer instructions (ratio %.2f)", k.name, ratio)
			}
			if i == 0 {
				b.Logf("%s: scalar/NEON instruction ratio %.1fx", k.name, ratio)
			}
		}
	}
}
