package cv

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"simdstudy/internal/faults"
	"simdstudy/internal/image"
	"simdstudy/internal/obs"
	"simdstudy/internal/resilience"
	"simdstudy/internal/super"
	"simdstudy/internal/trace"
	"simdstudy/internal/vec"
)

// wedgeInjector is a fault injector whose first intrinsic call blocks for
// stallFor — simulating a band wedged mid-row — and passes values through
// untouched otherwise.
type wedgeInjector struct {
	stallFor time.Duration
	fired    atomic.Bool
	stalls   atomic.Int64
}

func (w *wedgeInjector) maybeWedge() {
	if w.fired.CompareAndSwap(false, true) {
		w.stalls.Add(1)
		time.Sleep(w.stallFor)
	}
}

func (w *wedgeInjector) V128(_ faults.Site, v vec.V128) vec.V128 { w.maybeWedge(); return v }
func (w *wedgeInjector) V64(_ faults.Site, v vec.V64) vec.V64    { w.maybeWedge(); return v }
func (w *wedgeInjector) Skew(faults.Site, int) int               { w.maybeWedge(); return 0 }

// panicInjector panics at every instrumented intrinsic — a poisoned SIMD
// path whose bands crash instead of computing.
type panicInjector struct{}

func (panicInjector) V128(faults.Site, vec.V128) vec.V128 { panic("poisoned lane") }
func (panicInjector) V64(faults.Site, vec.V64) vec.V64    { panic("poisoned lane") }
func (panicInjector) Skew(faults.Site, int) int           { panic("poisoned lane") }

// gaussForms are the two forms of one entry point: the plain call, and the
// Ctx call simdserved makes, whose frame also binds the context.
var gaussForms = []struct {
	name string
	run  func(o *Ops, src, dst *image.Mat) error
}{
	{"plain", (*Ops).GaussianBlur},
	{"ctx", func(o *Ops, src, dst *image.Mat) error { return o.GaussianBlurCtx(context.Background(), src, dst) }},
}

// requireSettled fails unless o's call frame left no per-call state behind:
// no bound context and no open call tree or span.
func requireSettled(t *testing.T, o *Ops) {
	t.Helper()
	if o.ctx != nil || o.tree != (callTree{}) || len(o.frames) != 0 {
		t.Fatalf("call state left behind: ctx %v, tree %+v, %d open spans", o.ctx, o.tree, len(o.frames))
	}
}

// TestStallDetected proves the tentpole stall path at both worker counts
// and through both entry forms: a wedged band is detected within the
// watchdog deadline, its siblings are cancelled through the stop flag, the
// entry point returns a typed *super.StallError, and the verdict reaches
// the kernel's breaker as a failure. The Ops serves the next call, and the
// breaker's probe budget is whole once it cools down.
func TestStallDetected(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, form := range gaussForms {
				t.Run(form.name, func(t *testing.T) { testStallDetected(t, form.run, workers) })
			}
		})
	}
}

func testStallDetected(t *testing.T, gauss func(o *Ops, src, dst *image.Mat) error, workers int) {
	const deadline = 25 * time.Millisecond
	reg := obs.NewRegistry()
	wd := super.NewWatchdog(super.WatchdogConfig{Deadline: deadline}, reg)
	defer wd.Stop()
	clk := &testClock{t: time.Unix(0, 0)}
	brk := resilience.NewBreakerSet(resilience.BreakerConfig{
		MinSamples: 1, FailureRate: 1, OpenFor: time.Second, Clock: clk.Now,
	}, nil)

	o := NewOps(ISANEON, &trace.Counter{})
	o.SetParallel(ParallelConfig{Workers: workers, MinRowsPerBand: 1})
	o.SetWatchdog(wd)
	o.SetBreakers(brk)
	inj := &wedgeInjector{stallFor: 20 * deadline}
	o.SetFaultInjector(inj)

	src := image.Synthetic(image.Resolution{Name: "t", Width: 128, Height: 64}, 1)
	dst := image.NewMat(128, 64, image.U8)
	start := time.Now()
	err := gauss(o, src, dst)
	elapsed := time.Since(start)

	var se *super.StallError
	if !errors.As(err, &se) {
		t.Fatalf("GaussianBlur = %v, want *super.StallError", err)
	}
	if se.Op != "GaussianBlur" || se.ISA != "neon" || se.Deadline != deadline {
		t.Errorf("StallError = %+v", se)
	}
	// The wedged band sleeps 20x the deadline; returning well before it
	// would have finished proves detection happened at the deadline and
	// the siblings did not run the pass to completion behind it... the
	// call can only return once the wedged band wakes, so the bound is
	// sleep + scheduling slack, not sleep x rows.
	if elapsed > 5*inj.stallFor {
		t.Errorf("stall surfaced after %v; watchdog deadline %v", elapsed, deadline)
	}
	if wd.Stalls() == 0 {
		t.Error("watchdog recorded no stall")
	}
	// The stall was fed to the breaker as a failure (MinSamples 1,
	// FailureRate 1: a single failure opens it).
	if st := brk.State("GaussianBlur", "neon"); st != resilience.StateOpen {
		t.Errorf("breaker state = %v, want open", st)
	}
	snap := reg.Snapshot()
	if got := snap[`stall_total{isa="neon",kernel="GaussianBlur"}`]; got != 1 {
		t.Errorf("stall_total = %v, want 1", got)
	}

	// The Ops is reusable: the injector wedges only once, so the next
	// call completes.
	requireSettled(t, o)
	if err := gauss(o, src, dst); err != nil {
		t.Fatalf("call after the stall: %v", err)
	}
	// The probe budget is whole: once cooled down, the breaker admits
	// a half-open probe.
	clk.Advance(2 * time.Second)
	if ok, _ := brk.Admit("GaussianBlur", "neon", true); !ok {
		t.Fatal("cooled-down breaker refuses its half-open probe")
	}
	brk.Release("GaussianBlur", "neon")
}

// TestStallAfterRecoveryBeatsKeepPassing: a watchdog-attached Ops whose
// bands keep beating never stalls, and output matches an unwatched run.
func TestWatchedRunMatchesUnwatched(t *testing.T) {
	for _, workers := range []int{1, 4} {
		wd := super.NewWatchdog(super.WatchdogConfig{Deadline: time.Hour}, nil)
		defer wd.Stop()

		res := image.Resolution{Name: "t", Width: 128, Height: 64}
		src := image.Synthetic(res, 2)

		plain := NewOps(ISANEON, &trace.Counter{})
		plain.SetParallel(ParallelConfig{Workers: workers, MinRowsPerBand: 1})
		want := image.NewMat(128, 64, image.U8)
		if err := plain.GaussianBlur(src, want); err != nil {
			t.Fatal(err)
		}

		o := NewOps(ISANEON, &trace.Counter{})
		o.SetParallel(ParallelConfig{Workers: workers, MinRowsPerBand: 1})
		o.SetWatchdog(wd)
		got := image.NewMat(128, 64, image.U8)
		if err := o.GaussianBlur(src, got); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if d := want.DiffCount(got, 0); d != 0 {
			t.Fatalf("workers=%d: watched output differs in %d pixels", workers, d)
		}
		if wd.Stalls() != 0 {
			t.Fatalf("workers=%d: spurious stall", workers)
		}
	}
}

// TestPanicQuarantine proves the tentpole quarantine path through both
// entry forms: a (kernel, ISA) pair whose SIMD path panics repeatedly is
// quarantined by the supervisor — its breaker latches terminally
// stuck-open, and subsequent calls run the scalar, serial path and
// succeed. Each panic leaves the Ops reusable.
func TestPanicQuarantine(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, form := range gaussForms {
				t.Run(form.name, func(t *testing.T) { testPanicQuarantine(t, form.run, workers) })
			}
		})
	}
}

func testPanicQuarantine(t *testing.T, gauss func(o *Ops, src, dst *image.Mat) error, workers int) {
	reg := obs.NewRegistry()
	sup := super.NewSupervisor(super.QuarantinePolicy{MaxPanics: 2}, reg)
	brk := resilience.NewBreakerSet(resilience.BreakerConfig{}, nil)

	o := NewOps(ISANEON, &trace.Counter{})
	o.SetParallel(ParallelConfig{Workers: workers, MinRowsPerBand: 1})
	o.SetSupervisor(sup)
	o.SetBreakers(brk)
	o.SetFaultInjector(panicInjector{})

	src := image.Synthetic(image.Resolution{Name: "t", Width: 128, Height: 64}, 3)
	dst := image.NewMat(128, 64, image.U8)

	crash := func() (recovered any) {
		defer func() { recovered = recover() }()
		if err := gauss(o, src, dst); err != nil {
			t.Errorf("GaussianBlur returned error instead of panicking: %v", err)
		}
		return nil
	}

	// Panics below the policy threshold propagate (the caller still
	// sees the crash) but are counted.
	if r := crash(); r == nil {
		t.Fatal("first poisoned call did not panic")
	}
	requireSettled(t, o)
	if st := brk.State("GaussianBlur", "neon"); st == resilience.StateStuckOpen {
		t.Fatal("quarantined below MaxPanics")
	}
	// The second panic crosses MaxPanics=2: quarantine + stuck-open.
	if r := crash(); r == nil {
		t.Fatal("second poisoned call did not panic")
	}
	if qs := brk.Quarantines(); len(qs) != 1 || qs[0].Kernel != "GaussianBlur" || qs[0].Reason != resilience.ReasonPanic {
		t.Fatalf("pair not quarantined for panic after MaxPanics: %+v", qs)
	}
	if st := brk.State("GaussianBlur", "neon"); st != resilience.StateStuckOpen {
		t.Errorf("breaker state = %v, want stuck-open", st)
	}

	// Quarantined: the call is routed scalar+serial before the injector
	// can fire, so it now succeeds — graceful demotion, not an outage.
	requireSettled(t, o)
	if err := gauss(o, src, dst); err != nil {
		t.Fatalf("quarantined call failed: %v", err)
	}
	// And its output matches a plain scalar run.
	ref := NewOps(ISANEON, nil)
	ref.SetUseOptimized(false)
	want := image.NewMat(128, 64, image.U8)
	if err := ref.GaussianBlur(src, want); err != nil {
		t.Fatal(err)
	}
	if d := want.DiffCount(dst, 0); d != 0 {
		t.Errorf("quarantined output differs from scalar in %d pixels", d)
	}

	snap := reg.Snapshot()
	if got := snap[`quarantine_total{isa="neon",kernel="GaussianBlur"}`]; got != 1 {
		t.Errorf("quarantine_total = %v, want 1", got)
	}
	if got := snap[`worker_panics_total{isa="neon",kernel="GaussianBlur"}`]; got != 2 {
		t.Errorf("worker_panics_total = %v, want 2", got)
	}

	// Other kernels of the same Ops are not quarantined.
	o.SetFaultInjector(nil)
	dst2 := image.NewMat(128, 64, image.U8)
	if err := o.Threshold(src, dst2, 128, 255, ThreshBinary); err != nil {
		t.Fatalf("unrelated kernel failed: %v", err)
	}
	if st := brk.State("Threshold", "neon"); st == resilience.StateStuckOpen {
		t.Error("quarantine leaked to Threshold")
	}
}

// TestQuarantineReasonRoutes: the call frame routes a stuck-open pair on
// its reason, read in the one breaker-set call admit makes. Every reason
// runs the pair scalar; only a panic quarantine also runs it as one band.
// An Ops with no verdict source (unguarded, unaudited) reads the latch
// without probing and keeps SIMD unless the pair is panic-quarantined, and
// sibling kernels keep SIMD and their bands.
func TestQuarantineReasonRoutes(t *testing.T) {
	for _, why := range []resilience.Reason{resilience.ReasonPanic, resilience.ReasonCorruption, resilience.ReasonGiveUp} {
		for _, guarded := range []bool{true, false} {
			brk := resilience.NewBreakerSet(resilience.BreakerConfig{}, nil)
			brk.Quarantine("GaussianBlur", "neon", why)
			o := NewOps(ISANEON, nil)
			o.SetParallel(ParallelConfig{Workers: 4, MinRowsPerBand: 1})
			o.SetGuarded(guarded)
			o.SetBreakers(brk)

			o.admit("GaussianBlur")
			wantScalar := guarded || why == resilience.ReasonPanic
			wantBands := 4
			if why == resilience.ReasonPanic {
				wantBands = 1
			}
			if o.UseOptimized() == wantScalar || o.nBands(64, 1) != wantBands || o.tree.admitted {
				t.Errorf("%s guarded=%v: SIMD %v, %d bands, admitted %v; want SIMD %v, %d bands, not admitted",
					why, guarded, o.UseOptimized(), o.nBands(64, 1), o.tree.admitted, !wantScalar, wantBands)
			}
			o.settle()

			o.admit("Threshold")
			if !o.UseOptimized() || o.nBands(64, 1) != 4 {
				t.Errorf("%s guarded=%v: sibling demoted (SIMD %v, %d bands)", why, guarded, o.UseOptimized(), o.nBands(64, 1))
			}
			o.settle()
			requireSettled(t, o)
		}
	}
}

// TestHalfOpenProbePanicReleasesBudget is the regression test for the probe
// accounting hole: a half-open breaker admits one probe call; if that call's
// goroutine panics, the probe slot must be handed back — otherwise the
// breaker wedges half-open with its budget consumed and the pair can never
// re-arm.
func TestHalfOpenProbePanicReleasesBudget(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	brk := resilience.NewBreakerSet(resilience.BreakerConfig{
		MinSamples: 1, FailureRate: 1, OpenFor: time.Second, Clock: clock,
	}, nil)

	o := NewOps(ISANEON, &trace.Counter{})
	o.SetGuarded(true)
	o.SetBreakers(brk)

	// Trip the breaker open, then lapse the cooldown to half-open.
	brk.Record("GaussianBlur", "neon", false)
	now = now.Add(2 * time.Second)
	if st := brk.State("GaussianBlur", "neon"); st != resilience.StateHalfOpen {
		t.Fatalf("breaker state = %v, want half-open", st)
	}

	// The probe call's SIMD path panics mid-kernel.
	o.SetFaultInjector(panicInjector{})
	src := image.Synthetic(image.Resolution{Name: "t", Width: 64, Height: 32}, 4)
	dst := image.NewMat(64, 32, image.U8)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("probe call did not panic")
			}
		}()
		_ = o.GaussianBlur(src, dst)
	}()

	// Still half-open (the panic produced no verdict), and — the regression —
	// the probe budget is whole again: the next call is admitted.
	if st := brk.State("GaussianBlur", "neon"); st != resilience.StateHalfOpen {
		t.Fatalf("breaker state after panic = %v, want half-open", st)
	}
	if ok, _ := brk.Admit("GaussianBlur", "neon", true); !ok {
		t.Fatal("probe slot leaked: half-open breaker refuses the next probe")
	}
	brk.Release("GaussianBlur", "neon")

	// And a clean probe call closes the breaker end to end.
	o.SetFaultInjector(nil)
	if err := o.GaussianBlur(src, dst); err != nil {
		t.Fatalf("clean probe: %v", err)
	}
	if st := brk.State("GaussianBlur", "neon"); st != resilience.StateClosed {
		t.Fatalf("breaker state after clean probe = %v, want closed", st)
	}
}
