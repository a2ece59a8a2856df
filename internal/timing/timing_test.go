package timing

import (
	"testing"

	"simdstudy/internal/cv"
	"simdstudy/internal/image"
	"simdstudy/internal/platform"
	"simdstudy/internal/trace"
	"simdstudy/internal/vectorizer"
)

func TestHandProfileConvertMatchesSectionV(t *testing.T) {
	// Section V: the hand NEON convert loop retires 14 instructions per
	// 8 pixels; probe dimensions are multiples of 8 so there is no tail.
	p, err := HandProfile("ConvertFloatShort", cv.ISANEON)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Total(); got != 14.0/8 {
		t.Errorf("NEON convert: %v insns/px, want 1.75", got)
	}
	s, err := HandProfile("ConvertFloatShort", cv.ISASSE2)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Total(); got != 12.0/8 {
		t.Errorf("SSE2 convert: %v insns/px, want 1.5", got)
	}
	// Memoization returns identical values.
	p2, _ := HandProfile("ConvertFloatShort", cv.ISANEON)
	if p2 != p {
		t.Error("memoized profile differs")
	}
}

func TestHandProfilesAllBenchmarks(t *testing.T) {
	for _, bench := range BenchNames {
		for _, isa := range []cv.ISA{cv.ISANEON, cv.ISASSE2} {
			p, err := HandProfile(bench, isa)
			if err != nil {
				t.Fatalf("%s/%v: %v", bench, isa, err)
			}
			if p.Total() <= 0 {
				t.Errorf("%s/%v: empty profile", bench, isa)
			}
			if p.SIMDTotal() <= 0 {
				t.Errorf("%s/%v: hand path must use SIMD", bench, isa)
			}
		}
	}
	if _, err := HandProfile("NoSuch", cv.ISANEON); err == nil {
		t.Error("unknown benchmark should error")
	}
}

func TestAutoProfiles(t *testing.T) {
	for _, bench := range BenchNames {
		for _, target := range []vectorizer.Target{vectorizer.TargetNEON, vectorizer.TargetSSE2} {
			p, err := AutoProfile(bench, target, 3264)
			if err != nil {
				t.Fatalf("%s/%v: %v", bench, target, err)
			}
			if p.Total() <= 0 {
				t.Errorf("%s/%v: empty profile", bench, target)
			}
			// Every AUTO build must cost more instructions per pixel
			// than the hand build — the paper's core claim.
			isa := cv.ISANEON
			if target == vectorizer.TargetSSE2 {
				isa = cv.ISASSE2
			}
			h, err := HandProfile(bench, isa)
			if err != nil {
				t.Fatal(err)
			}
			if p.Total() <= h.Total() {
				t.Errorf("%s/%v: AUTO %.2f <= HAND %.2f insns/px",
					bench, target, p.Total(), h.Total())
			}
		}
	}
	if _, err := AutoProfile("NoSuch", vectorizer.TargetNEON, 100); err == nil {
		t.Error("unknown benchmark should error")
	}
	// The convert loop's AUTO build must remain fully scalar.
	p, _ := AutoProfile("ConvertFloatShort", vectorizer.TargetNEON, 3264)
	if p.SIMDTotal() != 0 {
		t.Error("AUTO convert must not contain vector instructions")
	}
	if p[trace.Call] != 1 {
		t.Error("AUTO ARM convert pays one libcall per pixel")
	}
}

func TestDecisions(t *testing.T) {
	ds, err := Decisions("GauBlu", vectorizer.TargetNEON)
	if err != nil || len(ds) != 2 {
		t.Fatalf("GauBlu decisions: %v %v", ds, err)
	}
	if ds[0].Vectorized || !ds[1].Vectorized {
		t.Error("gauss: horizontal scalar, vertical vectorized")
	}
	if _, err := Decisions("NoSuch", vectorizer.TargetNEON); err == nil {
		t.Error("unknown benchmark should error")
	}
}

func TestTrafficPerPixel(t *testing.T) {
	atom := platform.AtomD510()
	// Convert streams 4B in + 2B out; with write-allocate the store adds
	// a fetch, so expect roughly 4+2+2=8 B/px, certainly within [5, 10].
	b, err := TrafficPerPixel("ConvertFloatShort", atom, 1280)
	if err != nil {
		t.Fatal(err)
	}
	if b < 5 || b > 10 {
		t.Errorf("convert traffic %v B/px, want ~8", b)
	}
	// Threshold: 1B in + 1B out (+RFO) ~= 3 B/px.
	bt, err := TrafficPerPixel("BinThr", atom, 1280)
	if err != nil {
		t.Fatal(err)
	}
	if bt < 2 || bt > 4.5 {
		t.Errorf("threshold traffic %v B/px, want ~3", bt)
	}
	// Gaussian's 7 row-taps must hit cache: traffic near 2 passes of u8
	// in+out, not 7x.
	bg, err := TrafficPerPixel("GauBlu", atom, 1280)
	if err != nil {
		t.Fatal(err)
	}
	if bg > 10 {
		t.Errorf("gauss traffic %v B/px: vertical reuse not captured", bg)
	}
	// Edge detection touches the most planes.
	be, _ := TrafficPerPixel("EdgDet", atom, 1280)
	if be <= bg {
		t.Errorf("edges traffic %v should exceed gauss %v", be, bg)
	}
	if _, err := TrafficPerPixel("NoSuch", atom, 64); err == nil {
		t.Error("unknown benchmark should error")
	}
	// Memoized.
	b2, _ := TrafficPerPixel("ConvertFloatShort", atom, 1280)
	if b2 != b {
		t.Error("traffic memoization")
	}
}

func TestEstimateRunBasics(t *testing.T) {
	p := platform.Exynos4412()
	res := image.Res1MP
	auto, err := EstimateRun(p, "ConvertFloatShort", res, Auto)
	if err != nil {
		t.Fatal(err)
	}
	hand, err := EstimateRun(p, "ConvertFloatShort", res, Hand)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Seconds <= 0 || hand.Seconds <= 0 {
		t.Fatal("non-positive estimates")
	}
	if auto.Seconds <= hand.Seconds {
		t.Error("AUTO must be slower than HAND")
	}
	if auto.InstrPerPixel <= hand.InstrPerPixel {
		t.Error("AUTO must retire more instructions")
	}
	if hand.BytesPerPixel <= 0 || hand.MemCPP <= 0 || hand.ComputeCPP <= 0 {
		t.Error("estimate components must be positive")
	}
	if _, err := EstimateRun(p, "NoSuch", res, Auto); err != nil {
		// expected
	} else {
		t.Error("unknown benchmark should error")
	}
	if Auto.String() != "AUTO" || Hand.String() != "HAND" {
		t.Error("impl names")
	}
}

func TestTimesScaleWithImageSize(t *testing.T) {
	p := platform.CoreI53360M()
	small, _ := EstimateRun(p, "GauBlu", image.Res03MP, Hand)
	large, _ := EstimateRun(p, "GauBlu", image.Res8MP, Hand)
	ratio := large.Seconds / small.Seconds
	pixRatio := float64(image.Res8MP.Pixels()) / float64(image.Res03MP.Pixels())
	if ratio < pixRatio*0.8 || ratio > pixRatio*1.2 {
		t.Errorf("time ratio %.1f should track pixel ratio %.1f", ratio, pixRatio)
	}
}

// TestPaperShapeTargets pins the quantitative observations the paper
// states in its text; EXPERIMENTS.md records these same checks.
func TestPaperShapeTargets(t *testing.T) {
	res := image.Res8MP
	sp := func(p platform.Platform, bench string) float64 {
		s, err := speedup(p, bench, res)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Benchmark 1 (Table II row, stated in Section IV-A).
	if s := sp(platform.AtomD510(), "ConvertFloatShort"); s < 4.7 || s > 5.8 {
		t.Errorf("Atom convert speedup %.2f, paper 5.27", s)
	}
	if s := sp(platform.Core2Q9400(), "ConvertFloatShort"); s < 1.2 || s > 1.55 {
		t.Errorf("Core2 convert speedup %.2f, paper 1.34", s)
	}
	if s := sp(platform.Exynos3110(), "ConvertFloatShort"); s < 12 || s > 15 {
		t.Errorf("Exynos 3110 convert speedup %.2f, paper 13.88", s)
	}
	tegra := sp(platform.TegraT30(), "ConvertFloatShort")
	if tegra < 3.0 || tegra > 4.0 {
		t.Errorf("Tegra convert speedup %.2f, paper 3.42", tegra)
	}
	odroid := sp(platform.OdroidX(), "ConvertFloatShort")
	if odroid < 1.9*tegra {
		t.Errorf("ODROID-X benefit %.2f should be ~2x Tegra's %.2f", odroid, tegra)
	}

	// Global ranges (abstract): ARM 1.05-13.88, Intel 1.34-5.54.
	for _, p := range platform.Paper() {
		for _, bench := range BenchNames {
			s := sp(p, bench)
			if s < 1.0 {
				t.Errorf("%s/%s: HAND slower than AUTO (%.2f)", p.Name, bench, s)
			}
			if s > 14.5 {
				t.Errorf("%s/%s: speedup %.2f beyond the paper's 13.88 max", p.Name, bench, s)
			}
		}
	}

	// Benchmarks 2-5 stay below the convert benchmark's extremes
	// (Section IV-B: max ~5.5 vs 13 for convert).
	for _, p := range platform.Paper() {
		for _, bench := range []string{"BinThr", "GauBlu", "SobFil", "EdgDet"} {
			if s := sp(p, bench); s > 6.0 {
				t.Errorf("%s/%s: speedup %.2f exceeds the benches-2-5 ceiling", p.Name, bench, s)
			}
		}
	}

	// Edge detection has the smallest headroom (Figure 6 tops at ~2.6).
	for _, p := range platform.Paper() {
		if s := sp(p, "EdgDet"); s > 3.3 {
			t.Errorf("%s/EdgDet: speedup %.2f above Figure 6's range", p.Name, s)
		}
	}
}

// TestPaperAbsoluteOrderings pins the cross-platform absolute-time facts.
func TestPaperAbsoluteOrderings(t *testing.T) {
	res := image.Res8MP
	secs := func(p platform.Platform, bench string, impl Impl) float64 {
		e, err := EstimateRun(p, bench, res, impl)
		if err != nil {
			t.Fatal(err)
		}
		return e.Seconds
	}

	i5 := platform.CoreI53360M()
	i7 := platform.CoreI72820QM()
	atom := platform.AtomD510()
	ex4412 := platform.Exynos4412()
	ex3110 := platform.Exynos3110()
	odroid := platform.OdroidX()
	tegra := platform.TegraT30()

	for _, bench := range BenchNames {
		// i5 has the best absolute times overall.
		for _, p := range platform.Paper() {
			if p.Name == i5.Name {
				continue
			}
			if secs(p, bench, Hand) < secs(i5, bench, Hand) {
				t.Errorf("%s beats the i5 on %s HAND", p.Name, bench)
			}
		}
		// Exynos 4412 is the fastest ARM platform.
		for _, p := range platform.Paper() {
			if p.Family != platform.ARM || p.Name == ex4412.Name {
				continue
			}
			if secs(p, bench, Hand) < secs(ex4412, bench, Hand) {
				t.Errorf("%s beats the Exynos 4412 on %s HAND", p.Name, bench)
			}
		}
		// ODROID-X beats Tegra T30 on HAND at the same clock.
		if secs(odroid, bench, Hand) >= secs(tegra, bench, Hand) {
			t.Errorf("Tegra should trail ODROID-X on %s HAND", bench)
		}
	}

	// Fastest ARM is 8-15x slower than the i5 (benches 2-5 discussion).
	for _, bench := range []string{"BinThr", "GauBlu", "SobFil", "EdgDet"} {
		r := secs(ex4412, bench, Hand) / secs(i5, bench, Hand)
		if r < 8 || r > 15 {
			t.Errorf("%s: Exynos4412/i5 = %.1f, paper says 8-15", bench, r)
		}
	}

	// Atom vs Exynos 3110 (the in-order pair): Intel 3-10x faster.
	for _, bench := range []string{"BinThr", "SobFil", "EdgDet"} {
		r := secs(ex3110, bench, Auto) / secs(atom, bench, Auto)
		if r < 2.5 || r > 10 {
			t.Errorf("%s: Exynos3110/Atom = %.1f, paper says 3-10", bench, r)
		}
	}

	// Atom is roughly 10x slower than the i7 (Section IV-B; the model
	// lands near 8).
	r := secs(atom, "EdgDet", Auto) / secs(i7, "EdgDet", Auto)
	if r < 6 || r > 12 {
		t.Errorf("Atom/i7 = %.1f, paper says ~10", r)
	}
}

// TestSpeedupsSizeInvariant reproduces Figure 2's observation: within a
// platform the speedup is remarkably similar across image sizes.
func TestSpeedupsSizeInvariant(t *testing.T) {
	for _, p := range []platform.Platform{platform.AtomD510(), platform.Exynos4412()} {
		var lo, hi float64
		for i, res := range image.Resolutions {
			s, err := speedup(p, "ConvertFloatShort", res)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				lo, hi = s, s
				continue
			}
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
		if hi/lo > 1.15 {
			t.Errorf("%s: speedup varies %.2f-%.2f across sizes", p.Name, lo, hi)
		}
	}
}

// speedup returns the HAND-over-AUTO speedup factor for a benchmark on a
// platform at a resolution — the quantity plotted in the paper's
// Figures 2-6.
func speedup(p platform.Platform, bench string, res image.Resolution) (float64, error) {
	auto, err := EstimateRun(p, bench, res, Auto)
	if err != nil {
		return 0, err
	}
	hand, err := EstimateRun(p, bench, res, Hand)
	if err != nil {
		return 0, err
	}
	return auto.Seconds / hand.Seconds, nil
}
