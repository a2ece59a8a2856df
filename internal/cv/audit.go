package cv

import (
	"simdstudy/internal/image"
	"simdstudy/internal/integrity"
)

// This file hooks the integrity layer's sampled redundant-execution audits
// into kernel dispatch. The audit point is guardedRun — the one referee
// path every SIMD entry point (serial and pooled band paths, staged and
// fused sweeps alike: banding and strips happen inside the simd closure)
// routes through — so an attached Auditor sees exactly the calls whose
// output the SIMD path produced, and compares what the caller receives.
//
// A sampled call makes guardedRun build the full-plane scalar referee and
// compare the first SIMD output against it over the Auditor's row window,
// repairing the output on divergence. Guard mode decides only who owns
// the breaker verdict:
//
//   - Unguarded (plain production dispatch): the audit is the integrity
//     mechanism, so its verdict feeds the kernel's breaker — a corrupting
//     unit opens its breaker through the ordinary failure window and
//     recovers through half-open probes, while the scoreboard's decayed
//     rate escalates persistent corruption to a stuck-open latch.
//   - Guarded: the guard's spot-check keeps sole ownership of the breaker
//     verdict and drives retry/fallback exactly as without an auditor; the
//     audit contributes the corruption record, the scoreboard verdict, and
//     a repair when the spot-check's sampled rows missed the divergence.
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

// auditCompare diffs the SIMD output against the full scalar reference
// plane with the kernel's tolerance, returning nil when clean or a typed
// CorruptionError locating the divergence.
func (o *Ops) auditCompare(kernel string, got, want *image.Mat, tol int) *integrity.CorruptionError {
	w, h := got.Width, got.Height
	first, diffs := diffSpan(got, want, 0, 0, w*h, tol)
	if diffs == 0 {
		return nil
	}
	return &integrity.CorruptionError{
		Kernel: kernel, ISA: o.isa.String(),
		Region:    integrity.Region{Row0: 0, Row1: h, Width: w},
		FirstDiff: first, Diffs: diffs,
	}
}

// diffSpan counts the elements among n, starting at got's plane-linear
// index lo and want's index wlo (they differ when want holds only some
// rows of the plane), where got and want differ by more than tol. It
// returns the got-relative index of the first divergence (-1 when none)
// alongside the count. NaN anywhere is a divergence: no kernel here
// produces one.
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
