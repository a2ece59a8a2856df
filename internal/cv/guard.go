package cv

import (
	"fmt"
	"slices"
	"time"

	"simdstudy/internal/faults"
	"simdstudy/internal/image"
	"simdstudy/internal/integrity"
	"simdstudy/internal/obs"
	"simdstudy/internal/par"
	"simdstudy/internal/resilience"
)

// This file implements the one referee path, guardedRun. In guarded mode
// it runs a scalar referee after each hand-SIMD kernel, spot-checks sampled
// rows, and degrades gracefully — detect, retry once, fall back to the
// scalar result, and without a breaker finally trip the setUseOptimized
// kill-switch — instead of letting a corrupted lane reach the caller as
// silently wrong pixels. An audit the integrity auditor samples (audit.go)
// runs through the same path, guarded or not.
//
// The referee is a fresh scalar Ops configured for the *same* ISA, because
// rounding conventions are per-platform (cvRound is half-to-even on SSE2 and
// half-away-from-zero on ARM); comparing against the other family's scalar
// code would flag legitimate divergence as faults.
//
// The referee computes only what the spot-check compares: each sampled
// output row plus its stencil halo of source rows (see rowReferee). The
// full scalar plane is built only when it is used whole — a fallback copy,
// an audit-sampled call's full-window compare, or fused Canny, whose
// hysteresis makes every output row depend on the whole plane.

// guardKernel indexes guardSpecs, the table of guarded entry points.
type guardKernel int

// Guarded entry points.
const (
	gkConvert guardKernel = iota
	gkThreshold
	gkRGBToGray
	gkResizeHalf
	gkSobel
	gkEdges // staged and fused alike: the referee is the staged pipeline
	gkMedian
	gkGaussian
	gkCanny // fused only; staged Canny guards its Sobel calls instead
)

// wholePlane is the halo of a kernel whose output rows may depend on any
// source row: its referee always computes the full plane.
const wholePlane = -1

// guardSpec declares, once per guarded entry point, what its scalar referee
// needs: the per-element tolerance against it, by ISA (nonzero only where
// the SIMD path legitimately rounds differently from the scalar code); the
// halo, how many source rows beyond its own footprint one output row reads;
// and the scale, how many source rows one output row covers. A halo must be
// a multiple of the scale.
type guardSpec struct {
	name  string
	tol   [ISASSE2 + 1]int
	halo  int
	scale int
}

var guardSpecs = [...]guardSpec{
	// The NEON vector path truncates (vcvt) while the ARM scalar referee
	// rounds half away from zero, a documented divergence of the real
	// port: the guard allows one count of slack there.
	gkConvert:    {name: "ConvertF32ToS16", tol: [ISASSE2 + 1]int{ISANEON: 1}, scale: 1},
	gkThreshold:  {name: "Threshold", scale: 1},
	gkRGBToGray:  {name: "RGBToGray", scale: 1},
	gkResizeHalf: {name: "ResizeHalf", scale: 2},
	gkSobel:      {name: "SobelFilter", halo: 1, scale: 1},
	gkEdges:      {name: "DetectEdges", halo: 1, scale: 1},
	gkMedian:     {name: "MedianBlur3x3", halo: 1, scale: 1},
	gkGaussian:   {name: "GaussianBlur", halo: 3, scale: 1}, // 7 taps
	gkCanny:      {name: "Canny", halo: wholePlane, scale: 1},
}

// Tolerance returns the per-element divergence kernel's SIMD output on isa
// may show against its scalar referee: the guardSpecs declaration, for
// callers outside the guard that compare a kernel against scalar code.
// kernel is a guarded entry point's name, such as "ConvertF32ToS16"; any
// other name is a caller's bug and panics.
func Tolerance(kernel string, isa ISA) int {
	for _, s := range guardSpecs {
		if s.name == kernel {
			return s.tol[isa]
		}
	}
	panic("cv: no guarded kernel named " + kernel)
}

// refRun computes a kernel's scalar reference for source rows [r0, r1)
// into d, which holds (r1-r0)/scale output rows: the kernel's own entry
// path run on ref over a zero-copy row view of its source.
type refRun func(ref *Ops, r0, r1 int, d *image.Mat) error

// FaultAction classifies how a guarded kernel resolved a divergence.
type FaultAction int

// Guarded-mode outcomes, in escalation order.
const (
	// ActionDetected: the spot-check saw the SIMD output diverge from the
	// scalar referee beyond tolerance.
	ActionDetected FaultAction = iota
	// ActionRetryRecovered: re-running the SIMD path produced output that
	// matches the referee, so the fault was transient.
	ActionRetryRecovered
	// ActionFallback: retries exhausted; the scalar referee's output was
	// substituted for the SIMD output.
	ActionFallback
	// ActionKillSwitch: the terminal demotion. Without a breaker, KillAfter
	// fallbacks disabled the optimized paths for this Ops entirely
	// (setUseOptimized(false)); with one, the kernel's breaker latched
	// stuck-open and only that kernel runs scalar from then on.
	ActionKillSwitch
)

var actionNames = [...]string{"detected", "retry-recovered", "fallback", "kill-switch"}

// String names the action.
func (a FaultAction) String() string {
	if a < 0 || int(a) >= len(actionNames) {
		return fmt.Sprintf("action(%d)", int(a))
	}
	return actionNames[a]
}

// KernelFault is a typed record of one guarded-mode intervention.
type KernelFault struct {
	Kernel string      // entry point name, e.g. "GaussianBlur"
	ISA    ISA         // the SIMD family that diverged
	Action FaultAction // how the divergence was resolved
	Rows   []int       // sampled rows that diverged at first detection
	Diffs  int         // differing pixels across those rows
}

// String renders the fault for logs.
func (f KernelFault) String() string {
	return fmt.Sprintf("%s/%v: %v (%d diff pixels in rows %v)",
		f.Kernel, f.ISA, f.Action, f.Diffs, f.Rows)
}

// GuardPolicy tunes the guarded dispatch.
type GuardPolicy struct {
	// SampleRows is how many rows the spot-check compares per image
	// (clamped to the image height). Zero means the default of 8.
	SampleRows int
	// MaxRetries is how many times the SIMD path is re-run after a
	// detection before falling back. Negative means zero retries.
	MaxRetries int
	// KillAfter trips the kill-switch (useOptimized=false) after this many
	// fallbacks. Zero means the default of 3; negative disables the switch.
	// Ignored when a breaker set is attached (SetBreakers): there, the
	// breaker's GiveUpAfter policy owns the terminal demotion.
	KillAfter int
	// Seed drives the deterministic row sampler.
	Seed uint64
	// Backoff spaces SIMD retries after a detection. The zero value keeps
	// the historical immediate retry; waits are interruptible by the
	// context bound through the Ctx kernel variants.
	Backoff resilience.Backoff
}

// DefaultGuardPolicy returns the policy used when none is set.
func DefaultGuardPolicy() GuardPolicy {
	return GuardPolicy{SampleRows: 8, MaxRetries: 1, KillAfter: 3, Seed: 1}
}

func (p GuardPolicy) normalized() GuardPolicy {
	if p.SampleRows <= 0 {
		p.SampleRows = 8
	}
	if p.MaxRetries < 0 {
		p.MaxRetries = 0
	}
	if p.KillAfter == 0 {
		p.KillAfter = 3
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// SetGuarded toggles guarded mode. While on, every SIMD kernel entry point
// cross-checks its output against a scalar referee before returning.
func (o *Ops) SetGuarded(on bool) {
	o.guarded = on
	if on && o.policy == (GuardPolicy{}) {
		o.policy = DefaultGuardPolicy()
	}
}

// SetGuardPolicy installs a policy and enables guarded mode.
func (o *Ops) SetGuardPolicy(p GuardPolicy) {
	o.policy = p.normalized()
	o.guarded = true
}

// SetFaultInjector attaches (or, with nil, detaches) a fault injector to the
// underlying NEON and SSE2 emulation units. The injector fires at every
// instrumented intrinsic; the scalar paths and the guard referee are never
// subject to injection.
func (o *Ops) SetFaultInjector(inj faults.Injector) {
	o.injector = inj
	o.n.F = inj
	o.s.F = inj
}

// Faults returns the guarded-mode interventions recorded so far.
func (o *Ops) Faults() []KernelFault { return o.kernelFaults }

// Fallbacks returns how many times a kernel fell back to the scalar result.
func (o *Ops) Fallbacks() int { return o.fallbacks }

// ResetFaults clears recorded interventions and the fallback count, and
// re-arms the kill-switch by re-enabling optimized paths if the ISA has any.
func (o *Ops) ResetFaults() {
	o.kernelFaults = nil
	o.fallbacks = 0
	if o.isa != ISAScalar {
		o.useOptimized = true
	}
}

func (o *Ops) recordFault(f KernelFault) {
	o.kernelFaults = append(o.kernelFaults, f)
	if o.T != nil {
		o.T.Event("fault." + f.Action.String())
	}
	if o.Obs != nil {
		o.Obs.Counter("guard_actions_total",
			obs.L("kernel", f.Kernel), obs.L("isa", f.ISA.String()),
			obs.L("action", f.Action.String())).Inc()
		fields := map[string]any{
			"kernel": f.Kernel,
			"isa":    f.ISA.String(),
			"action": f.Action.String(),
		}
		if len(f.Rows) > 0 {
			fields["rows"] = f.Rows
			fields["diffs"] = f.Diffs
		}
		o.Obs.Emit("guard.fault", fields)
	}
}

// sampleRows picks policy.SampleRows distinct rows of an h-row image
// deterministically from the policy seed. The first and last rows are always
// included: edge handling is where hand kernels historically diverge.
func (o *Ops) sampleRows(h int) []int {
	n := o.policy.SampleRows
	if n >= h {
		rows := make([]int, h)
		for i := range rows {
			rows[i] = i
		}
		return rows
	}
	seen := make(map[int]bool, n)
	rows := make([]int, 0, n)
	add := func(r int) {
		if !seen[r] {
			seen[r] = true
			rows = append(rows, r)
		}
	}
	add(0)
	if n > 1 {
		add(h - 1)
	}
	s := o.policy.Seed
	for len(rows) < n {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		add(int((s * 0x2545F4914F6CDD1D) % uint64(h)))
	}
	return rows
}

// diffRows counts pixels in the sampled rows where got and want differ by
// more than tol, and returns the diverging rows alongside the total.
func diffRows(got *image.Mat, want *refRows, rows []int, tol int) (bad []int, diffs int) {
	w := got.Width
	for _, r := range rows {
		if _, d := diffSpan(got, want.m, r*w, want.row(r)*w, w, tol); d > 0 {
			bad = append(bad, r)
			diffs += d
		}
	}
	return bad, diffs
}

// refereeOps returns a fresh referee Ops: the same ISA (same rounding
// conventions), optimizations off, no trace (its instructions are
// bookkeeping, not workload), and crucially no fault injector. It has no
// bound context either, so a deadline can never interrupt the reference
// computation mid-row. banded gives it o's band configuration — bands are
// byte-identical to a serial run — unless o is quarantined to serial.
func (o *Ops) refereeOps(banded bool) *Ops {
	ref := NewOps(o.isa, nil)
	ref.SetUseOptimized(false)
	if banded && !o.tree.serial {
		ref.par = o.par
	}
	return ref
}

// referee computes the full-plane scalar reference of a kernel call into a
// pooled w x h Mat, which the caller returns with par.PutMat.
func (o *Ops) referee(w, h int, kind image.Type, rerun func(ref *Ops, d *image.Mat) error) (*image.Mat, error) {
	want := par.GetMat(w, h, kind)
	if err := rerun(o.refereeOps(true), want); err != nil {
		par.PutMat(want)
		return nil, err
	}
	return want, nil
}

// refRows is a scalar reference for the rows a guard compares: the whole
// plane (win nil), or the merged row windows around the sampled rows,
// packed top to bottom into one pooled Mat.
type refRows struct {
	m   *image.Mat
	win []refWin
}

// refWin places output rows [y0, y1) at rows [off, off+y1-y0) of refRows.m.
type refWin struct{ y0, y1, off int }

// row returns the row of r.m holding output row y's reference.
func (r *refRows) row(y int) int {
	if r.win == nil {
		return y
	}
	for _, w := range r.win {
		if y >= w.y0 && y < w.y1 {
			return w.off + y - w.y0
		}
	}
	panic(fmt.Sprintf("cv: row %d outside the referee windows", y))
}

// rowReferee computes the scalar reference of just the output rows the
// guard compares. Output row y reads source rows [s·y-halo, s·y+s+halo),
// clamped to the plane; overlapping or touching windows merge, and each
// merged window runs rerun on a serial referee over a row view of the
// source. Every windowed kernel replicates its borders (clampIdx), so a
// window clamped only at true plane edges reproduces the full-plane rows
// byte for byte (TestRefereeRowsMatchFullPlane). The caller returns the
// result's Mat with par.PutMat.
func (o *Ops) rowReferee(spec guardSpec, srcH int, dst *image.Mat, rows []int, rerun refRun) (*refRows, error) {
	ys := slices.Clone(rows)
	slices.Sort(ys)
	s, halo := spec.scale, spec.halo
	type srcWin struct{ r0, r1 int }
	srcWins := make([]srcWin, 0, len(ys))
	for _, y := range ys {
		r0, r1 := max(0, s*y-halo), min(srcH, s*y+s+halo)
		if n := len(srcWins); n > 0 && r0 <= srcWins[n-1].r1 {
			srcWins[n-1].r1 = max(srcWins[n-1].r1, r1)
			continue
		}
		srcWins = append(srcWins, srcWin{r0, r1})
	}
	ref := &refRows{win: make([]refWin, len(srcWins))}
	total := 0
	for i, sw := range srcWins {
		y0, y1 := sw.r0/s, sw.r1/s
		ref.win[i] = refWin{y0: y0, y1: y1, off: total}
		total += y1 - y0
	}
	ref.m = par.GetMat(dst.Width, total, dst.Kind)
	ro := o.refereeOps(false)
	view := new(image.Mat) // one row view of ref.m, re-pointed per window
	for i, sw := range srcWins {
		wi := ref.win[i]
		*view = *ref.m.Rows(wi.off, wi.off+wi.y1-wi.y0)
		if err := rerun(ro, sw.r0, sw.r1, view); err != nil {
			par.PutMat(ref.m)
			return nil, err
		}
	}
	return ref, nil
}

// copyPixels overwrites dst's pixel data with src's (shapes already match).
func copyPixels(dst, src *image.Mat) {
	copy(dst.U8Pix, src.U8Pix)
	copy(dst.S16Pix, src.S16Pix)
	copy(dst.F32Pix, src.F32Pix)
}

// plane runs a single-plane kernel: run computes d from s on the path
// op.path() selects. A SIMD call routes through guardedRun, whose referee
// reruns run on a scalar Ops over a row view of the source. The view is
// allocated once per referee and re-pointed per window: run is opaque
// here, so every view handed to it escapes.
func (o *Ops) plane(k guardKernel, src, dst *image.Mat, run func(op *Ops, s, d *image.Mat)) error {
	if o.path() == ISAScalar {
		run(o, src, dst)
		return nil
	}
	var view *image.Mat
	return o.guardedRun(k, src.Height, dst,
		func() error { run(o, src, dst); return nil },
		func(ref *Ops, r0, r1 int, d *image.Mat) error {
			if view == nil {
				view = new(image.Mat)
			}
			*view = *src.Rows(r0, r1)
			run(ref, view, d)
			return nil
		})
}

// guardedRun is the one referee path every SIMD kernel entry point routes
// through. simd runs the hand-optimized path into dst; rerun invokes the
// same entry path on a referee Ops over rows of the srcH-row source, so
// the scalar reference lands in scratch. The kernel's guardSpecs entry
// gives the pixel tolerance and the referee's stencil.
//
// Guarded flow: run SIMD → spot-check sampled rows against the scalar
// referee → on divergence record ActionDetected, retry the SIMD path up to
// MaxRetries → still diverging: substitute the full referee plane
// (ActionFallback) → after KillAfter fallbacks flip useOptimized off
// (ActionKillSwitch). An unguarded call the auditor samples is the same
// flow with no spot-check rows and no retries: the audit's full-window
// compare is its only check (see audit.go).
func (o *Ops) guardedRun(k guardKernel, srcH int, dst *image.Mat,
	simd func() error, rerun refRun) error {
	if o.inGuard {
		// A nested kernel call (DetectEdges → SobelFilter) already covered
		// by the outer guard or audit.
		return simd()
	}
	// The audit sampling decision is drawn up front, so the sampler stream
	// is positioned identically whether or not the guard later intervenes.
	audit := o.aud != nil && o.aud.Sample()
	if !o.guarded && !audit {
		return simd()
	}
	spec := guardSpecs[k]
	kernel, tol := spec.name, spec.tol[o.isa]
	o.inGuard = true
	defer func() { o.inGuard = false }()

	if err := simd(); err != nil {
		return err
	}

	o.ctxCheck()
	start := time.Now()
	spName := "integrity.audit"
	var rows []int
	if o.guarded {
		spName = "guard.referee"
		rows = o.sampleRows(dst.Height)
	}
	refSpan := o.curSpan().Child(spName)
	full := func(ref *Ops, d *image.Mat) error { return rerun(ref, 0, srcH, d) }
	want := &refRows{}
	var err error
	if audit || spec.halo == wholePlane {
		want.m, err = o.referee(dst.Width, dst.Height, dst.Kind, full)
	} else {
		want, err = o.rowReferee(spec, srcH, dst, rows, rerun)
	}
	if err != nil {
		refSpan.End()
		return fmt.Errorf("cv: %s referee: %w", kernel, err)
	}
	defer par.PutMat(want.m)

	bad, diffs := diffRows(dst, want, rows, tol)

	// The audit compares the first SIMD output against the full referee
	// over the audit window. In guarded mode the spot-check keeps sole
	// ownership of the breaker verdict below, and the audit contributes the
	// corruption record and, on the guard-clean path, a repair when the
	// spot-check's rows missed a divergence the full-window compare caught.
	// Unguarded, the audit is the only check and its verdict is the
	// breaker's.
	var ce *integrity.CorruptionError
	if audit {
		ce = o.auditCompare(kernel, dst, want.m, tol)
		if ce != nil {
			refSpan.SetAttr("mismatch", true)
		}
		// The audit is scored under the call tree's outermost kernel, the
		// key its breaker verdict settles under: a nested pass of staged
		// Canny counts against Canny, whose admission it serves.
		o.aud.Observe(o.Obs, o.tree.kernel, o.isa.String(), time.Since(start), o.traceID, ce)
	}
	refSpan.End()

	if len(bad) == 0 {
		if ce != nil {
			copyPixels(dst, want.m)
		}
		o.verdict(o.guarded || ce == nil)
		return nil
	}
	o.recordFault(KernelFault{Kernel: kernel, ISA: o.isa, Action: ActionDetected, Rows: bad, Diffs: diffs})

	for try := 0; try < o.policy.MaxRetries; try++ {
		if d := o.policy.Backoff.Delay(try); d > 0 {
			if err := resilience.Sleep(o.ctx, d); err != nil {
				panic(ctxCanceled{err})
			}
		}
		o.ctxCheck()
		retrySpan := o.curSpan().Child("guard.retry")
		if err := simd(); err != nil {
			retrySpan.End()
			return err
		}
		if b, _ := diffRows(dst, want, rows, tol); len(b) == 0 {
			retrySpan.End()
			o.recordFault(KernelFault{Kernel: kernel, ISA: o.isa, Action: ActionRetryRecovered})
			o.verdict(true)
			return nil
		}
		retrySpan.End()
	}

	// Degrade gracefully: substitute the full scalar plane, computed now
	// unless the referee already built it.
	fbSpan := o.curSpan().Child("guard.fallback")
	fb := want.m
	if want.win != nil {
		m, err := o.referee(dst.Width, dst.Height, dst.Kind, full)
		if err != nil {
			fbSpan.End()
			return fmt.Errorf("cv: %s referee: %w", kernel, err)
		}
		defer par.PutMat(m)
		fb = m
	}
	copyPixels(dst, fb)
	o.fallbacks++
	o.recordFault(KernelFault{Kernel: kernel, ISA: o.isa, Action: ActionFallback})
	if o.brk == nil && o.policy.KillAfter > 0 && o.fallbacks >= o.policy.KillAfter && o.useOptimized {
		// Legacy terminal demotion, only without a breaker: with one, the
		// breaker's open/half-open cycle owns the decision and StuckOpen is
		// the terminal action (see recordBreaker).
		o.useOptimized = false
		o.recordFault(KernelFault{Kernel: kernel, ISA: o.isa, Action: ActionKillSwitch})
	}
	fbSpan.End()
	o.verdict(false)
	return nil
}

// recordBreaker feeds a call tree's verdict into the kernel's breaker. A
// breaker that latches StuckOpen is recorded once per
// kernel as ActionKillSwitch; the latch itself is the breaker's: its Allow
// denies the pair on every later call, so only this kernel runs scalar and
// its siblings on the Ops keep their SIMD paths.
func (o *Ops) recordBreaker(kernel string, success bool) {
	if o.brk.Record(kernel, o.isa.String(), success) != resilience.StateStuckOpen {
		return
	}
	for _, f := range o.kernelFaults {
		if f.Kernel == kernel && f.Action == ActionKillSwitch {
			return // a late verdict on a breaker already latched
		}
	}
	o.recordFault(KernelFault{Kernel: kernel, ISA: o.isa, Action: ActionKillSwitch})
}
