package simdstudy

import (
	"bytes"
	"strings"
	"testing"

	"simdstudy/internal/cv"
	"simdstudy/internal/harness"
	"simdstudy/internal/image"
	"simdstudy/internal/platform"
	"simdstudy/internal/vec"
)

// TestFacadeEndToEnd drives the study through the public API the way the
// examples do; the extended platform catalogue is read from its package.
func TestFacadeEndToEnd(t *testing.T) {
	if len(Platforms()) != 10 {
		t.Fatal("ten Table I platforms")
	}
	if len(platform.All()) != 11 {
		t.Fatal("plus the extrapolated A15")
	}
	if len(BenchNames()) != 5 {
		t.Fatal("five benchmarks")
	}
	if len(Resolutions()) != 4 {
		t.Fatal("four sizes")
	}

	res := Resolution{Width: 160, Height: 120, Name: "160x120"}
	src := Synthetic(res, 1)
	dst := NewMat(res.Width, res.Height, U8)
	want := NewMat(res.Width, res.Height, U8)

	tr := NewTrace()
	ops := NewOps(ISANEON, tr)
	if err := ops.GaussianBlur(src, dst); err != nil {
		t.Fatal(err)
	}
	if tr.SIMDTotal() == 0 {
		t.Fatal("NEON path should use the vector pipe")
	}
	scalar := NewOps(ISAScalar, nil)
	if err := scalar.GaussianBlur(src, want); err != nil {
		t.Fatal(err)
	}
	if !want.EqualTo(dst) {
		t.Fatal("facade kernels disagree with scalar")
	}

	p, err := PlatformByName("Galaxy") // no match
	if err == nil {
		t.Fatalf("unexpected platform %v", p)
	}
	p, err = PlatformByName("odroid")
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateRun(p, "GauBlu", Res03MP, Hand)
	if err != nil {
		t.Fatal(err)
	}
	if est.Seconds <= 0 {
		t.Fatal("estimate must be positive")
	}
	auto, err := EstimateRun(p, "GauBlu", Res03MP, Auto)
	if s := auto.Seconds / est.Seconds; err != nil || s <= 1 {
		t.Fatalf("speedup %v %v", s, err)
	}
}

func TestFacadeCustomKernelSurface(t *testing.T) {
	// The custom-kernel example's surface: raw intrinsic units over V64/V128.
	tr := NewTrace()
	n := NewNEON(tr)
	a := n.VdupNU8(10)
	b := n.VdupNU8(32)
	acc := n.VmullU8(a, b)
	if acc.U16(0) != 320 {
		t.Fatal("NEON unit arithmetic")
	}
	s := NewSSE2(tr)
	v := s.Set1Epi16(7)
	if s.MulloEpi16(v, v).I16(3) != 49 {
		t.Fatal("SSE2 unit arithmetic")
	}
	n.Flush()
	s.Flush()
	if tr.Total() == 0 {
		t.Fatal("units must record")
	}
	var v128 vec.V128
	v128.SetF32(2, 1.5)
	if v128.F32(2) != 1.5 {
		t.Fatal("V128 lanes")
	}
	var v64 vec.V64
	v64.SetI16(1, -3)
	if v64.I16(1) != -3 {
		t.Fatal("V64 lanes")
	}
}

func TestFacadeGridAndVerify(t *testing.T) {
	g, err := RunGrid("BinThr", Platforms()[:2], []Resolution{Res03MP})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	g.RenderCSV(&buf)
	if !strings.Contains(buf.String(), "BinThr") {
		t.Fatal("grid CSV")
	}
	n, err := harness.Verify("BinThr", Resolution{Width: 64, Height: 48})
	if err != nil || n != 5 {
		t.Fatalf("verify: %d %v", n, err)
	}
}

func TestFacadeReportingSurface(t *testing.T) {
	var buf bytes.Buffer
	harness.RenderTable1(&buf, Platforms())
	if !strings.Contains(buf.String(), "Pineview") {
		t.Fatal("Table I render")
	}
	ds, err := VectorizeDecisions("EdgDet", TargetNEON)
	if err != nil || len(ds) != 5 {
		t.Fatalf("decisions: %d %v", len(ds), err)
	}
	out, err := SectionVComparison(ISASSE2)
	if err != nil || !strings.Contains(out, "packssdw") {
		t.Fatalf("Section V: %v", err)
	}
}

func TestFacadePGMRoundTrip(t *testing.T) {
	src := Synthetic(Resolution{Width: 17, Height: 9}, 4)
	var buf bytes.Buffer
	if err := WritePGM(&buf, src); err != nil {
		t.Fatal(err)
	}
	back, err := image.ReadPGM(&buf)
	if err != nil || !src.EqualTo(back) {
		t.Fatalf("PGM roundtrip: %v", err)
	}
}

func TestFacadeThresholdConstants(t *testing.T) {
	src := NewMat(4, 1, U8)
	copy(src.U8Pix, []uint8{0, 50, 150, 250})
	dst := NewMat(4, 1, U8)
	o := NewOps(ISASSE2, nil)
	for _, typ := range []cv.ThreshType{cv.ThreshBinary, cv.ThreshBinaryInv, ThreshTrunc, cv.ThreshToZero, cv.ThreshToZeroInv} {
		if err := o.Threshold(src, dst, 100, 255, typ); err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
	}
	f := SyntheticF32(Resolution{Width: 8, Height: 8}, 1)
	out := NewMat(8, 8, S16)
	if err := o.ConvertF32ToS16(f, out); err != nil {
		t.Fatal(err)
	}
}
