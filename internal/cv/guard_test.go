package cv

import (
	"context"
	"testing"

	"simdstudy/internal/faults"
	"simdstudy/internal/image"
	"simdstudy/internal/trace"
	"simdstudy/internal/vec"
)

// corruptor is a test Injector that flips a low byte of every Nth V128 at
// one site. remaining < 0 means corrupt forever (a hard fault); otherwise
// it stops after that many corruptions (a transient fault).
type corruptor struct {
	site      faults.Site
	every     int
	seen      int
	remaining int
}

func (c *corruptor) V128(site faults.Site, v vec.V128) vec.V128 {
	if site != c.site || c.remaining == 0 {
		return v
	}
	c.seen++
	if c.every > 1 && c.seen%c.every != 0 {
		return v
	}
	if c.remaining > 0 {
		c.remaining--
	}
	v.SetU8(0, v.U8(0)^0x40)
	return v
}

func (c *corruptor) V64(site faults.Site, v vec.V64) vec.V64 { return v }
func (c *corruptor) Skew(site faults.Site, slack int) int    { return 0 }

func guardKernels(t *testing.T) map[string]func(o *Ops, src, dst *image.Mat) error {
	t.Helper()
	return map[string]func(o *Ops, src, dst *image.Mat) error{
		"Threshold": func(o *Ops, src, dst *image.Mat) error {
			return o.Threshold(src, dst, 100, 255, ThreshTrunc)
		},
		"GaussianBlur":  (*Ops).GaussianBlur,
		"MedianBlur3x3": func(o *Ops, s, d *image.Mat) error { return o.MedianBlur3x3Ctx(context.Background(), s, d) },
		"DetectEdges": func(o *Ops, src, dst *image.Mat) error {
			return o.DetectEdges(src, dst, 80)
		},
	}
}

// TestGuardedNoFaultIdenticalOutput: with no injector, guarded mode must
// change no pixel relative to the plain SIMD path.
func TestGuardedNoFaultIdenticalOutput(t *testing.T) {
	src := image.Synthetic(image.Resolution{Width: 64, Height: 48}, 1)
	for _, isa := range []ISA{ISANEON, ISASSE2} {
		for name, kern := range guardKernels(t) {
			plain := NewOps(isa, nil)
			want := image.NewMat(64, 48, image.U8)
			if err := kern(plain, src, want); err != nil {
				t.Fatalf("%v/%s plain: %v", isa, name, err)
			}

			g := NewOps(isa, nil)
			g.SetGuarded(true)
			got := image.NewMat(64, 48, image.U8)
			if err := kern(g, src, got); err != nil {
				t.Fatalf("%v/%s guarded: %v", isa, name, err)
			}
			if !want.EqualTo(got) {
				t.Errorf("%v/%s: guarded output differs in %d pixels",
					isa, name, want.DiffCount(got, 0))
			}
			if n := len(g.Faults()); n != 0 {
				t.Errorf("%v/%s: %d spurious fault records: %v", isa, name, n, g.Faults())
			}
		}
	}
}

// TestGuardDetectsAndFallsBack: a persistent lane corruption must be
// detected, survive the retry, and end in a scalar fallback whose output
// equals the scalar reference.
func TestGuardDetectsAndFallsBack(t *testing.T) {
	src := image.Synthetic(image.Resolution{Width: 64, Height: 48}, 2)
	for _, isa := range []ISA{ISANEON, ISASSE2} {
		ref := NewOps(isa, nil)
		ref.SetUseOptimized(false)
		want := image.NewMat(64, 48, image.U8)
		if err := ref.Threshold(src, want, 100, 255, ThreshTrunc); err != nil {
			t.Fatal(err)
		}

		tr := &trace.Counter{}
		g := NewOps(isa, tr)
		g.SetGuardPolicy(GuardPolicy{SampleRows: 48}) // check every row
		g.SetFaultInjector(&corruptor{site: faults.SiteALU, remaining: -1})
		got := image.NewMat(64, 48, image.U8)
		if err := g.Threshold(src, got, 100, 255, ThreshTrunc); err != nil {
			t.Fatalf("%v: %v", isa, err)
		}

		if !want.EqualTo(got) {
			t.Fatalf("%v: fallback output differs from scalar in %d pixels",
				isa, want.DiffCount(got, 0))
		}
		actions := map[FaultAction]int{}
		for _, f := range g.Faults() {
			if f.Kernel != "Threshold" || f.ISA != isa {
				t.Errorf("%v: fault record mislabeled: %v", isa, f)
			}
			actions[f.Action]++
		}
		if actions[ActionDetected] == 0 {
			t.Errorf("%v: corruption not detected: %v", isa, g.Faults())
		}
		if actions[ActionFallback] == 0 || g.Fallbacks() != 1 {
			t.Errorf("%v: no fallback recorded (fallbacks=%d): %v", isa, g.Fallbacks(), g.Faults())
		}
		if ev := tr.Events(); ev["fault.detected"] == 0 || ev["fault.fallback"] == 0 {
			t.Errorf("%v: trace events missing: %v", isa, tr.Events())
		}
	}
}

// TestGuardRetryRecovers: a transient fault (one corruption, then clean)
// must resolve via retry, with no fallback and untouched SIMD output.
func TestGuardRetryRecovers(t *testing.T) {
	src := image.Synthetic(image.Resolution{Width: 64, Height: 48}, 3)
	g := NewOps(ISASSE2, nil)
	g.SetGuardPolicy(GuardPolicy{SampleRows: 48, MaxRetries: 1})
	g.SetFaultInjector(&corruptor{site: faults.SiteALU, remaining: 1})
	dst := image.NewMat(64, 48, image.U8)
	if err := g.Threshold(src, dst, 100, 255, ThreshTrunc); err != nil {
		t.Fatal(err)
	}

	var sawDetect, sawRecover bool
	for _, f := range g.Faults() {
		switch f.Action {
		case ActionDetected:
			sawDetect = true
		case ActionRetryRecovered:
			sawRecover = true
		case ActionFallback:
			t.Errorf("transient fault should not reach fallback: %v", f)
		}
	}
	if !sawDetect || !sawRecover {
		t.Fatalf("want detect+retry-recover, got %v", g.Faults())
	}

	plain := NewOps(ISASSE2, nil)
	want := image.NewMat(64, 48, image.U8)
	if err := plain.Threshold(src, want, 100, 255, ThreshTrunc); err != nil {
		t.Fatal(err)
	}
	if !want.EqualTo(dst) {
		t.Fatal("recovered output should match the clean SIMD output")
	}
}

// TestGuardKillSwitch: repeated fallbacks must flip useOptimized off, after
// which kernels run scalar (and record no further faults).
func TestGuardKillSwitch(t *testing.T) {
	src := image.Synthetic(image.Resolution{Width: 64, Height: 48}, 4)
	g := NewOps(ISANEON, nil)
	g.SetGuardPolicy(GuardPolicy{SampleRows: 48, KillAfter: 2})
	g.SetFaultInjector(&corruptor{site: faults.SiteALU, remaining: -1})
	dst := image.NewMat(64, 48, image.U8)

	for i := 0; i < 3; i++ {
		if err := g.MedianBlur3x3Ctx(context.Background(), src, dst); err != nil {
			t.Fatal(err)
		}
	}
	if g.UseOptimized() {
		t.Fatal("kill-switch did not disable optimized paths after repeated fallbacks")
	}
	var tripped bool
	for _, f := range g.Faults() {
		if f.Action == ActionKillSwitch {
			tripped = true
		}
	}
	if !tripped {
		t.Fatalf("no kill-switch record: %v", g.Faults())
	}

	// Scalar-only now: the run is clean and adds no fault records.
	before := len(g.Faults())
	if err := g.MedianBlur3x3Ctx(context.Background(), src, dst); err != nil {
		t.Fatal(err)
	}
	if len(g.Faults()) != before {
		t.Fatalf("scalar path recorded faults: %v", g.Faults()[before:])
	}

	// ResetFaults re-arms the switch.
	g.ResetFaults()
	if !g.UseOptimized() || g.Fallbacks() != 0 || len(g.Faults()) != 0 {
		t.Fatal("ResetFaults did not re-arm the kill-switch")
	}
}

// TestGuardWithPlanInjector wires the real faults.Plan at a high rate and
// checks that detected corruption still converges to scalar-equal output —
// the end-to-end contract the harness fault campaign relies on.
func TestGuardWithPlanInjector(t *testing.T) {
	src := image.Synthetic(image.Resolution{Width: 96, Height: 64}, 5)
	for _, isa := range []ISA{ISANEON, ISASSE2} {
		ref := NewOps(isa, nil)
		ref.SetUseOptimized(false)
		want := image.NewMat(96, 64, image.U8)
		if err := ref.GaussianBlur(src, want); err != nil {
			t.Fatal(err)
		}

		g := NewOps(isa, nil)
		g.SetGuardPolicy(GuardPolicy{SampleRows: 64, MaxRetries: 0, KillAfter: -1})
		plan := faults.NewPlan(faults.Config{Rate: 1e-3, Seed: 7, Kinds: []faults.Kind{faults.KindBitFlip}})
		g.SetFaultInjector(plan)
		got := image.NewMat(96, 64, image.U8)
		if err := g.GaussianBlur(src, got); err != nil {
			t.Fatalf("%v: %v", isa, err)
		}
		if plan.Injected() == 0 {
			t.Fatalf("%v: plan injected nothing at rate 1e-3", isa)
		}
		if g.Fallbacks() == 0 {
			t.Fatalf("%v: persistent high-rate faults should have forced a fallback", isa)
		}
		if !want.EqualTo(got) {
			t.Fatalf("%v: final output differs from scalar in %d pixels",
				isa, want.DiffCount(got, 0))
		}
	}
}
