package cv

import (
	"fmt"
	"time"

	"simdstudy/internal/image"
	"simdstudy/internal/integrity"
	"simdstudy/internal/par"
)

// This file hooks the integrity layer's sampled redundant-execution audits
// into kernel dispatch. The audit point is guardedRun — the one chokepoint
// every SIMD entry point (serial and pooled band paths alike: banding
// happens inside the simd closure) routes through — so an attached Auditor
// sees exactly the calls whose output the SIMD path produced.
//
// Two shapes, by guard mode:
//
//   - Unguarded (plain production dispatch): a sampled call computes its
//     own scalar reference via a fresh referee Ops and compares the full
//     plane (or the Auditor's row window). The audit *is* the integrity
//     mechanism here, so its verdict also feeds the kernel's breaker — a
//     corrupting unit opens its breaker through the ordinary failure
//     window and recovers through half-open probes, while the scoreboard's
//     decayed rate escalates persistent corruption to a stuck-open latch.
//   - Guarded: a sampled call makes the guard build its full-plane
//     referee instead of the sampled rows' windows, and the audit shares
//     it for a full-window compare of the first SIMD output. The guard
//     keeps sole ownership of the breaker verdict (its spot-check drives
//     retry/fallback exactly as before); the audit contributes the
//     corruption record, the scoreboard verdict, and a repair when the
//     spot-check's sampled rows missed the divergence.
//
// An unsampled call costs one atomic load (rate scaled to zero) or one
// mutexed xorshift draw — no allocation, which the Host* benchmark gate
// pins down.

// SetAuditor attaches (or, with nil, detaches) an integrity auditor
// sampling this Ops' SIMD kernel calls for scalar re-execution. The
// auditor may be shared across Ops (the serving front-end shares one per
// server); outcomes report to the Ops' observer registry and the
// auditor's scoreboard.
func (o *Ops) SetAuditor(a *integrity.Auditor) { o.aud = a }

// auditCompare diffs the SIMD output against the scalar reference over the
// auditor's row window with the kernel's tolerance, returning nil when
// clean or a typed CorruptionError locating the divergence.
func (o *Ops) auditCompare(kernel string, got, want *image.Mat, tol int) *integrity.CorruptionError {
	r0, r1 := o.aud.Window(got.Height)
	first, diffs := diffRegion(got, want, r0, r1, tol)
	if diffs == 0 {
		return nil
	}
	return &integrity.CorruptionError{
		Kernel: kernel, ISA: o.isa.String(),
		Region:    integrity.Region{Row0: r0, Row1: r1, Width: got.Width},
		FirstDiff: first, Diffs: diffs,
	}
}

// auditedRun is the unguarded audit path: run the SIMD kernel, recompute
// the scalar reference, compare, repair on divergence, and record the
// verdict with the auditor and the breaker.
func (o *Ops) auditedRun(k guardKernel, srcH int, dst *image.Mat,
	simd func() error, rerun refRun) error {
	kernel, tol := guardSpecs[k].name, guardSpecs[k].tol[o.isa]
	o.inGuard = true
	defer func() { o.inGuard = false }()

	if err := simd(); err != nil {
		return err
	}

	o.ctxCheck()
	start := time.Now()
	sp := o.curSpan().Child("integrity.audit")
	want, err := o.referee(dst.Width, dst.Height, dst.Kind, func(ref *Ops, d *image.Mat) error {
		return rerun(ref, 0, srcH, d)
	})
	if err != nil {
		sp.End()
		return fmt.Errorf("cv: %s audit referee: %w", kernel, err)
	}
	defer par.PutMat(want)
	ce := o.auditCompare(kernel, dst, want, tol)
	if ce != nil {
		// The reference is the trusted result: a detected-corrupt plane
		// never reaches the caller. The referee computed the full image, so
		// the repair covers every row even under a sliced comparison.
		copyPixels(dst, want)
		sp.SetAttr("mismatch", true)
	}
	sp.End()
	o.aud.Observe(o.Obs, kernel, o.isa.String(), time.Since(start), o.traceID, ce)
	o.recordBreaker(kernel, ce == nil)
	return nil
}

// diffRegion counts elements in rows [r0, r1) where got and want differ by
// more than tol, returning the plane-linear index of the first divergence
// (-1 when none) alongside the count. NaN anywhere is a divergence: no
// kernel here produces one.
func diffRegion(got, want *image.Mat, r0, r1, tol int) (first, diffs int) {
	return diffSpan(got, want, r0*got.Width, r0*got.Width, (r1-r0)*got.Width, tol)
}

// diffSpan is diffRegion over n elements starting at got's plane-linear
// index lo and want's index wlo, which differ when want holds only some
// rows of the plane; first is got-relative.
func diffSpan(got, want *image.Mat, lo, wlo, n, tol int) (first, diffs int) {
	first = -1
	hi, off := lo+n, wlo-lo
	note := func(i int) {
		if first < 0 {
			first = i
		}
		diffs++
	}
	absDiff := func(a, b int) int {
		if a > b {
			return a - b
		}
		return b - a
	}
	switch got.Kind {
	case image.U8:
		for i := lo; i < hi; i++ {
			if absDiff(int(got.U8Pix[i]), int(want.U8Pix[i+off])) > tol {
				note(i)
			}
		}
	case image.S16:
		for i := lo; i < hi; i++ {
			if absDiff(int(got.S16Pix[i]), int(want.S16Pix[i+off])) > tol {
				note(i)
			}
		}
	case image.F32:
		for i := lo; i < hi; i++ {
			a, b := got.F32Pix[i], want.F32Pix[i+off]
			if a != a || b != b || absDiff(int(a-b), 0) > tol {
				note(i)
			}
		}
	}
	return first, diffs
}
