package cv

import (
	"strings"
	"testing"
	"time"

	"simdstudy/internal/faults"
	"simdstudy/internal/image"
	"simdstudy/internal/integrity"
	"simdstudy/internal/obs"
	"simdstudy/internal/resilience"
	"simdstudy/internal/vec"
)

func scalarThreshold(t *testing.T, isa ISA, src *image.Mat) *image.Mat {
	t.Helper()
	ref := NewOps(isa, nil)
	ref.SetUseOptimized(false)
	want := image.NewMat(src.Width, src.Height, image.U8)
	if err := ref.Threshold(src, want, 100, 255, ThreshTrunc); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestAuditRateZeroNoEffect: an attached auditor at rate 0 must neither
// sample nor perturb output.
func TestAuditRateZeroNoEffect(t *testing.T) {
	src := image.Synthetic(image.Resolution{Width: 64, Height: 48}, 1)
	for _, isa := range []ISA{ISANEON, ISASSE2} {
		plain := NewOps(isa, nil)
		want := image.NewMat(64, 48, image.U8)
		if err := plain.Threshold(src, want, 100, 255, ThreshTrunc); err != nil {
			t.Fatal(err)
		}

		aud := integrity.NewAuditor(integrity.AuditConfig{Rate: 0})
		o := NewOps(isa, nil)
		o.SetAuditor(aud)
		got := image.NewMat(64, 48, image.U8)
		if err := o.Threshold(src, got, 100, 255, ThreshTrunc); err != nil {
			t.Fatal(err)
		}
		if !want.EqualTo(got) {
			t.Fatalf("%v: rate-0 audit changed output", isa)
		}
		if aud.Sampled() != 0 || aud.Skipped() != 0 {
			t.Fatalf("%v: rate-0 auditor drew samples", isa)
		}
	}
}

// TestAuditRateOneDetectsAllCorruptedOutputs is the acceptance-criterion
// core: with silent bit flips injected into the SIMD units and no guard,
// auditing at rate 1.0 must flag exactly the calls whose output actually
// diverged from the scalar reference — 100% of corrupted outputs, zero
// false positives — and must repair every one of them.
func TestAuditRateOneDetectsAllCorruptedOutputs(t *testing.T) {
	const calls = 40
	res := image.Resolution{Width: 64, Height: 48}
	for _, isa := range []ISA{ISANEON, ISASSE2} {
		srcs := make([]*image.Mat, calls)
		refs := make([]*image.Mat, calls)
		for i := range srcs {
			srcs[i] = image.Synthetic(res, uint64(i+1))
			refs[i] = scalarThreshold(t, isa, srcs[i])
		}
		planCfg := faults.Config{Rate: 5e-4, Seed: 11, Kinds: []faults.Kind{faults.KindBitFlip}}

		// Ground truth: the same call sequence, same injection plan, no
		// auditor. Which outputs actually came out corrupted?
		truth := NewOps(isa, nil)
		truth.SetFaultInjector(faults.NewPlan(planCfg))
		corrupted := map[int]bool{}
		for i, src := range srcs {
			dst := image.NewMat(res.Width, res.Height, image.U8)
			if err := truth.Threshold(src, dst, 100, 255, ThreshTrunc); err != nil {
				t.Fatal(err)
			}
			if !refs[i].EqualTo(dst) {
				corrupted[i] = true
			}
		}
		if len(corrupted) == 0 {
			t.Fatalf("%v: injection produced no corrupted outputs; test is vacuous", isa)
		}

		// Audited run: identical sequence, fresh identical plan, rate 1.
		aud := integrity.NewAuditor(integrity.AuditConfig{Rate: 1})
		o := NewOps(isa, nil)
		o.SetAuditor(aud)
		o.SetFaultInjector(faults.NewPlan(planCfg))
		for i, src := range srcs {
			dst := image.NewMat(res.Width, res.Height, image.U8)
			before := aud.Mismatches()
			if err := o.Threshold(src, dst, 100, 255, ThreshTrunc); err != nil {
				t.Fatal(err)
			}
			caught := aud.Mismatches() > before
			if caught != corrupted[i] {
				t.Fatalf("%v call %d: corrupted=%v but audit caught=%v",
					isa, i, corrupted[i], caught)
			}
			if !refs[i].EqualTo(dst) {
				t.Fatalf("%v call %d: output not repaired (%d diff pixels)",
					isa, i, refs[i].DiffCount(dst, 0))
			}
		}
		if got := int(aud.Mismatches()); got != len(corrupted) {
			t.Fatalf("%v: audit caught %d, ground truth has %d corrupted outputs",
				isa, got, len(corrupted))
		}
		if aud.Sampled() != calls {
			t.Fatalf("%v: sampled %d of %d calls at rate 1", isa, aud.Sampled(), calls)
		}
	}
}

// persistentCorruptor corrupts every V128 at one site. Unlike corruptor it
// holds no mutable state, so it is safe to share across band workers.
type persistentCorruptor struct{ site faults.Site }

func (c persistentCorruptor) V128(site faults.Site, v vec.V128) vec.V128 {
	if site == c.site {
		v.SetU8(0, v.U8(0)^0x40)
	}
	return v
}
func (c persistentCorruptor) V64(site faults.Site, v vec.V64) vec.V64 { return v }
func (c persistentCorruptor) Skew(site faults.Site, slack int) int    { return 0 }

// TestAuditParallelBandPath: audits must also cover the pooled row-banded
// dispatch — the simd closure runs banded, the referee serial.
func TestAuditParallelBandPath(t *testing.T) {
	src := image.Synthetic(image.Resolution{Width: 128, Height: 96}, 9)
	want := scalarThreshold(t, ISANEON, src)

	aud := integrity.NewAuditor(integrity.AuditConfig{Rate: 1})
	o := NewOps(ISANEON, nil)
	o.SetParallel(ParallelConfig{Workers: 4, MinRowsPerBand: 8})
	o.SetAuditor(aud)
	o.SetFaultInjector(persistentCorruptor{site: faults.SiteALU})
	dst := image.NewMat(128, 96, image.U8)
	if err := o.Threshold(src, dst, 100, 255, ThreshTrunc); err != nil {
		t.Fatal(err)
	}
	if aud.Mismatches() == 0 {
		t.Fatal("persistent corruption on the banded path not caught")
	}
	if !want.EqualTo(dst) {
		t.Fatalf("banded output not repaired (%d diff pixels)", want.DiffCount(dst, 0))
	}
}

// TestAuditGuardedPiggybackRepairsSpotCheckMiss: in guarded mode the audit
// rides the guard's referee, and a divergence confined to rows the
// spot-check never samples must still be caught and repaired by the
// full-window audit compare.
func TestAuditGuardedPiggybackRepairsSpotCheckMiss(t *testing.T) {
	src := image.Synthetic(image.Resolution{Width: 64, Height: 48}, 6)
	want := scalarThreshold(t, ISANEON, src)

	// One transient corruption around the 100th ALU vector — far past row 0,
	// the only row a SampleRows=1 spot-check examines.
	mkCorr := func() *corruptor { return &corruptor{site: faults.SiteALU, every: 100, remaining: 1} }

	// Ground truth: the same corruption, unguarded and unaudited, must
	// actually corrupt the output somewhere outside row 0.
	truth := NewOps(ISANEON, nil)
	truth.SetFaultInjector(mkCorr())
	raw := image.NewMat(64, 48, image.U8)
	if err := truth.Threshold(src, raw, 100, 255, ThreshTrunc); err != nil {
		t.Fatal(err)
	}
	if want.EqualTo(raw) {
		t.Skip("injected flip was masked by this kernel; nothing to detect")
	}
	for i := 0; i < 64; i++ {
		if raw.U8Pix[i] != want.U8Pix[i] {
			t.Fatal("corruption landed in row 0; pick a later site for this test")
		}
	}

	aud := integrity.NewAuditor(integrity.AuditConfig{Rate: 1})
	g := NewOps(ISANEON, nil)
	g.SetGuardPolicy(GuardPolicy{SampleRows: 1, MaxRetries: 0, KillAfter: -1})
	g.SetAuditor(aud)
	g.SetFaultInjector(mkCorr())
	dst := image.NewMat(64, 48, image.U8)
	if err := g.Threshold(src, dst, 100, 255, ThreshTrunc); err != nil {
		t.Fatal(err)
	}
	if len(g.Faults()) != 0 {
		t.Fatalf("spot-check should have missed this divergence, got %v", g.Faults())
	}
	if aud.Mismatches() != 1 {
		t.Fatalf("piggyback audit mismatches = %d, want 1", aud.Mismatches())
	}
	if !want.EqualTo(dst) {
		t.Fatalf("guard-clean path did not repair the audited divergence (%d diff pixels)",
			want.DiffCount(dst, 0))
	}
}

// TestAuditScoreboardTripsQuarantine: a burst of audit mismatches on one
// (kernel, ISA) pair must trip the scoreboard, which forces that pair's
// breaker stuck-open — while sibling kernels on the same unit keep closed
// breakers and full SIMD service — and subsequent traffic transparently
// serves scalar results.
func TestAuditScoreboardTripsQuarantine(t *testing.T) {
	src := image.Synthetic(image.Resolution{Width: 64, Height: 48}, 7)
	want := scalarThreshold(t, ISANEON, src)

	// Breaker tuned so it cannot open naturally before the scoreboard's
	// MinSamples=8 trip: the trip path under test is scoreboard →
	// ForceStuckOpen, not the ordinary failure window.
	brk := resilience.NewBreakerSet(resilience.BreakerConfig{
		Window: 64, MinSamples: 64, FailureRate: 1.0,
	}, nil)
	sb := integrity.NewScoreboard(integrity.ScoreboardConfig{}, nil)
	sb.OnTrip(func(k, isa string) { brk.ForceStuckOpen(k, isa) })
	aud := integrity.NewAuditor(integrity.AuditConfig{Rate: 1})
	aud.SetScoreboard(sb)

	o := NewOps(ISANEON, nil)
	o.SetBreakers(brk)
	o.SetAuditor(aud)
	o.SetFaultInjector(&corruptor{site: faults.SiteALU, remaining: -1})

	dst := image.NewMat(64, 48, image.U8)
	for i := 0; i < 10; i++ {
		if err := o.Threshold(src, dst, 100, 255, ThreshTrunc); err != nil {
			t.Fatal(err)
		}
		// Mirror the serving layer: the per-Ops useOptimized latch is
		// re-armed between requests; per-pair demotion is the breaker's job.
		o.ResetFaults()
	}

	if !sb.Tripped("Threshold", "neon") {
		t.Fatalf("mismatch burst did not trip the scoreboard (scores %v)", sb.Snapshot())
	}
	if st := brk.State("Threshold", "neon"); st != resilience.StateStuckOpen {
		t.Fatalf("tripped pair's breaker is %v, want stuck-open", st)
	}
	if st := brk.State("GaussianBlur", "neon"); st != resilience.StateClosed {
		t.Fatalf("sibling kernel's breaker is %v, want closed", st)
	}

	// The poisonous unit keeps corrupting, but the quarantined pair now runs
	// scalar: correct bytes, no audits drawn, injector never consulted.
	sampledBefore := aud.Sampled()
	got := image.NewMat(64, 48, image.U8)
	if err := o.Threshold(src, got, 100, 255, ThreshTrunc); err != nil {
		t.Fatal(err)
	}
	if !want.EqualTo(got) {
		t.Fatalf("quarantined pair served corrupt bytes (%d diff pixels)", want.DiffCount(got, 0))
	}
	if aud.Sampled() != sampledBefore {
		t.Fatal("scalar-demoted call was audited")
	}

	// A sibling kernel with a healthy path still runs SIMD under audit on
	// the same Ops (drop the injector: the defect under test is
	// kernel-specific, not unit-wide).
	o.SetFaultInjector(nil)
	blurDst := image.NewMat(64, 48, image.U8)
	if err := o.GaussianBlur(src, blurDst); err != nil {
		t.Fatal(err)
	}
	if st := brk.State("GaussianBlur", "neon"); st != resilience.StateClosed {
		t.Fatalf("clean sibling opened: %v", st)
	}
	blurRef := NewOps(ISANEON, nil)
	blurRef.SetUseOptimized(false)
	blurWant := image.NewMat(64, 48, image.U8)
	if err := blurRef.GaussianBlur(src, blurWant); err != nil {
		t.Fatal(err)
	}
	if !blurWant.EqualTo(blurDst) {
		t.Fatal("sibling SIMD output wrong")
	}
}

// TestAuditNaturalBreakerRecovery: sub-scoreboard corruption opens the
// breaker through the ordinary failure window, and clean audits on
// half-open probes close it again — the existing recovery protocol, driven
// by audit verdicts instead of guard verdicts.
func TestAuditNaturalBreakerRecovery(t *testing.T) {
	src := image.Synthetic(image.Resolution{Width: 64, Height: 48}, 8)
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	brk := resilience.NewBreakerSet(resilience.BreakerConfig{
		MinSamples: 4, FailureRate: 0.5, OpenFor: 5 * time.Second, Clock: clock,
	}, nil)
	aud := integrity.NewAuditor(integrity.AuditConfig{Rate: 1})

	o := NewOps(ISASSE2, nil)
	o.SetBreakers(brk)
	o.SetAuditor(aud)
	o.SetFaultInjector(&corruptor{site: faults.SiteALU, remaining: -1})

	dst := image.NewMat(64, 48, image.U8)
	for i := 0; i < 4; i++ {
		if err := o.Threshold(src, dst, 100, 255, ThreshTrunc); err != nil {
			t.Fatal(err)
		}
		o.ResetFaults()
	}
	if st := brk.State("Threshold", "sse2"); st != resilience.StateOpen {
		t.Fatalf("breaker is %v after 4 audit failures, want open", st)
	}

	// Open: calls run scalar, no audits drawn.
	sampled := aud.Sampled()
	if err := o.Threshold(src, dst, 100, 255, ThreshTrunc); err != nil {
		t.Fatal(err)
	}
	if aud.Sampled() != sampled {
		t.Fatal("open breaker still admitted an audited SIMD call")
	}

	// The fault clears; after the cooldown a half-open probe runs under
	// audit, comes back clean, and closes the breaker.
	o.SetFaultInjector(nil)
	now = now.Add(6 * time.Second)
	if err := o.Threshold(src, dst, 100, 255, ThreshTrunc); err != nil {
		t.Fatal(err)
	}
	if st := brk.State("Threshold", "sse2"); st != resilience.StateClosed {
		t.Fatalf("clean audited probe left breaker %v, want closed", st)
	}
	if aud.Mismatches() != 4 {
		t.Fatalf("mismatches = %d, want the 4 pre-recovery failures", aud.Mismatches())
	}
}

// TestAuditRateZeroMetricsByteIdentical pins the zero-cost-off contract on
// the metrics side: a workload run with a rate-0 auditor attached renders a
// WritePrometheus output whose pre-existing families are byte-identical to
// the same workload without the auditor, and no audit families appear.
// Wall-clock histogram observations (kernel_wall_seconds buckets and sum)
// are inherently timing-dependent and excluded; their sample counts are not.
func TestAuditRateZeroMetricsByteIdentical(t *testing.T) {
	run := func(withAuditor bool) string {
		reg := obs.NewRegistry()
		o := NewOps(ISANEON, nil)
		o.SetObserver(reg)
		o.SetGuarded(true)
		if withAuditor {
			o.SetAuditor(integrity.NewAuditor(integrity.AuditConfig{Rate: 0, Seed: 1}))
		}
		src := image.Synthetic(image.Resolution{Width: 64, Height: 48}, 1)
		dst := image.NewMat(64, 48, image.U8)
		for i := 0; i < 5; i++ {
			if err := o.Threshold(src, dst, 100, 255, ThreshTrunc); err != nil {
				t.Fatal(err)
			}
		}
		var buf strings.Builder
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	deterministic := func(out string) string {
		var keep []string
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "wall_seconds_bucket") ||
				strings.Contains(line, "wall_seconds_sum") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	without, with := run(false), run(true)
	if deterministic(without) != deterministic(with) {
		t.Errorf("rate-0 auditor changed pre-existing metric families:\nwithout:\n%s\nwith:\n%s",
			deterministic(without), deterministic(with))
	}
	for _, family := range []string{"audit_", "corruption_", "integrity_", "plane_"} {
		if strings.Contains(with, family) {
			t.Errorf("rate-0 auditor emitted %s* series:\n%s", family, with)
		}
	}
}

// TestStagedCannyAuditScoresCanny: staged Canny has no referee of its own,
// so its nested SobelFilter passes are audited. Their verdicts belong to the
// call tree's outermost kernel: a corrupting unit must trip ("Canny", isa)
// on the scoreboard — the pair whose breaker Canny's admission reads — and
// leave SobelFilter's row untouched.
func TestStagedCannyAuditScoresCanny(t *testing.T) {
	src := image.Synthetic(image.Resolution{Width: 64, Height: 48}, 7)
	brk := resilience.NewBreakerSet(resilience.BreakerConfig{
		Window: 64, MinSamples: 64, FailureRate: 1.0,
	}, nil)
	sb := integrity.NewScoreboard(integrity.ScoreboardConfig{Threshold: 0.2, MinSamples: 2}, nil)
	sb.OnTrip(func(k, isa string) { brk.ForceStuckOpen(k, isa) })
	aud := integrity.NewAuditor(integrity.AuditConfig{Rate: 1})
	aud.SetScoreboard(sb)

	o := NewOps(ISANEON, nil)
	o.SetBreakers(brk)
	o.SetAuditor(aud)
	o.SetFaultInjector(&corruptor{site: faults.SiteALU, remaining: -1})
	dst := image.NewMat(64, 48, image.U8)
	for i := 0; i < 3; i++ {
		if err := o.Canny(src, dst, 50, 150); err != nil {
			t.Fatal(err)
		}
		o.ResetFaults()
	}
	if aud.Mismatches() == 0 {
		t.Fatal("the corrupting unit produced no audit mismatch")
	}
	if !sb.Tripped("Canny", "neon") {
		t.Fatalf("staged Canny's audits did not trip (Canny, neon): scores %v", sb.Snapshot())
	}
	if sb.Tripped("SobelFilter", "neon") {
		t.Fatalf("a nested pass's audit tripped (SobelFilter, neon): scores %v", sb.Snapshot())
	}
	if st := brk.State("Canny", "neon"); st != resilience.StateStuckOpen {
		t.Fatalf("Canny's breaker is %v, want stuck-open", st)
	}
	if st := brk.State("SobelFilter", "neon"); st != resilience.StateClosed {
		t.Fatalf("SobelFilter's breaker is %v, want closed", st)
	}
}
