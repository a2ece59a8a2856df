package cv

import (
	"context"
	"fmt"

	"simdstudy/internal/obs"
	"simdstudy/internal/resilience"
)

// This file is the one call frame every public kernel entry point runs in.
// An entry point is a pair: XCtx holds the kernel's body inside o.call, and
// the plain X is the one-line XCtx(nil, ...). The frame, in order:
//
//   - binds the context for the call tree (the first frame handed a non-nil
//     ctx is the binding frame; nested calls inherit its binding);
//   - at the outermost entry, the frame that finds tree.kernel empty, asks
//     the breaker set whether the call runs SIMD (see admit);
//   - opens the kernel span (observe.go);
//   - runs the body, and in one deferred exit classifies how it ended:
//     cancellation becomes a typed *resilience.DeadlineError at the binding
//     frame, a stalled parallel section becomes a typed *super.StallError
//     plus a failed verdict, and any other panic is recorded with the
//     supervisor at the outermost entry and resumes unwinding;
//   - closes the span, and at the outermost entry settles the call tree's
//     quarantine and its one breaker verdict (see settle).
//
// Row loops call tick once per row and flat loops once per element block;
// when the bound context is done the tick unwinds the kernel with a
// private panic that the binding frame converts, carrying how many rows
// completed. The internal-panic pattern follows encoding/json: no unwind
// token escapes the package. A plain Ops — no breaker, observer,
// supervisor, watchdog or auditor — called without a context skips the
// frame and runs the body directly, so it writes no per-call state and
// stays shareable across goroutines.

// ctxCanceled is the private unwind token raised by tick.
type ctxCanceled struct{ err error }

// Verdicts a call tree collects for its breaker; a failure outranks a pass.
const (
	verdictNone = iota
	verdictPass
	verdictFail
)

// callTree is the state an outermost kernel call shares with every kernel
// it calls (DetectEdges -> SobelFilter), reset when the outermost frame
// exits.
type callTree struct {
	kernel     string            // the outermost entry point in flight; "" between calls
	scalar     bool              // SIMD denied: an open or stuck-open breaker
	serial     bool              // panic-quarantined: every pass runs one band
	admitted   bool              // the breaker admitted the call: a verdict or a release is owed
	verdict    int               // the worst referee, audit or stall verdict so far
	quarantine resilience.Reason // a quarantine owed to the pair, latched at settle
}

// tick is called once per completed unit by the banded loops: per row (row
// true) or per element block of a flat kernel. With no bound context it is
// a few nil checks; with one, it counts a row toward the call's progress
// and unwinds if the context is done. On a band clone it also beats the
// band's watchdog heart and polls the section's shared stop flag, so a
// sibling band's failure, a stall verdict or cancellation unwinds this
// band at its next unit boundary.
func (o *Ops) tick(row bool) {
	if o.heart != nil {
		o.heart.Beat()
	}
	if o.stop != nil && o.stop.Load() {
		panic(bandStopped{})
	}
	if o.ctx == nil {
		return
	}
	if row {
		o.ctxRows++
	}
	if err := o.ctx.Err(); err != nil {
		panic(ctxCanceled{err})
	}
}

// ctxCheck unwinds immediately when the bound context is done; guardedRun
// calls it at phase boundaries (before the referee, before each retry).
func (o *Ops) ctxCheck() {
	if o.ctx == nil {
		return
	}
	if err := o.ctx.Err(); err != nil {
		panic(ctxCanceled{err})
	}
}

// call runs body as public entry point kernel. rows is the planned row
// count (passes x height) a DeadlineError reports progress against.
func (o *Ops) call(ctx context.Context, kernel string, rows int, body func() error) (err error) {
	bind := ctx != nil && o.ctx == nil
	watched := !o.instrumentFree()
	if !bind && !watched {
		return body()
	}
	if bind {
		if e := ctx.Err(); e != nil {
			return &resilience.DeadlineError{Op: "cv." + kernel, Cause: e, Total: rows, Unit: "rows"}
		}
		o.ctx, o.ctxRows, o.traceID = ctx, 0, obs.TraceID(ctx)
	}
	outer := watched && o.tree.kernel == ""
	if outer {
		o.admit(kernel)
	}
	if watched {
		o.openSpan(kernel)
	}
	defer func() { o.exit(kernel, rows, bind, watched, outer, recover(), &err) }()
	return body()
}

// exit is call's deferred epilogue; r is what the body panicked with.
func (o *Ops) exit(kernel string, rows int, bind, watched, outer bool, r any, errp *error) {
	spanErr := error(nil)
	switch u := r.(type) {
	case nil:
		spanErr = *errp
	case ctxCanceled:
		if bind {
			*errp = &resilience.DeadlineError{
				// A band-major fused sweep also ticks the seam rows its
				// bands recompute, so progress can pass the planned rows.
				Op: "cv." + kernel, Cause: u.err, Completed: min(o.ctxRows, rows), Total: rows, Unit: "rows",
			}
			r = nil
		}
	case stallUnwind:
		o.verdict(false)
		*errp, spanErr = u.err, u.err
		r = nil
	default:
		if outer && o.sup != nil && o.sup.RecordPanic(kernel, o.isa.String(), r) {
			o.tree.quarantine = resilience.ReasonPanic
		}
		spanErr = fmt.Errorf("panic: %v", r)
	}
	if watched {
		o.closeSpan(kernel, spanErr)
	}
	if outer {
		o.settle()
	}
	if bind {
		o.ctx, o.ctxRows, o.traceID = nil, 0, ""
	}
	if r != nil {
		panic(r)
	}
}

// admit opens the call tree of outermost entry point kernel with one
// breaker-set call. It probes the breaker only when the SIMD path is
// eligible and something can produce a verdict (the guard referee or a
// sampled audit): a half-open probe must be resolved by a verdict or a
// Release, so probing for a call that runs scalar anyway would leak it.
// A denied call runs scalar without touching the useOptimized latch; a
// panic-quarantined pair also runs serial, its bands judged poisonous.
func (o *Ops) admit(kernel string) {
	t := callTree{kernel: kernel}
	if o.brk != nil {
		probe := (o.guarded || o.aud != nil) && o.useOptimized && o.isa != ISAScalar
		ok, why := o.brk.Admit(kernel, o.isa.String(), probe)
		t.admitted = probe && ok
		t.scalar = probe && !ok
		if why == resilience.ReasonPanic {
			t.scalar, t.serial = true, true
		}
	}
	o.tree = t
}

// verdict folds one referee, audit or stall outcome into the call tree.
func (o *Ops) verdict(ok bool) {
	if o.brk == nil {
		return
	}
	v := verdictFail
	if ok {
		v = verdictPass
	}
	o.tree.verdict = max(o.tree.verdict, v)
}

// settle closes the call tree at the outermost exit: a quarantine it owes
// (a panic the supervisor named, an audit that tripped the scoreboard)
// latches first, then its one verdict is recorded into the breaker of the
// outermost kernel — so staged Canny's nested Sobel referees resolve
// Canny's own admission — and an admitted call that produced none (a
// validation error, a cancellation, a panic, an unsampled audit) hands its
// half-open probe back.
func (o *Ops) settle() {
	t := o.tree
	o.tree = callTree{}
	if t.quarantine != "" && o.brk != nil {
		o.brk.Quarantine(t.kernel, o.isa.String(), t.quarantine)
	}
	switch {
	case t.verdict != verdictNone:
		o.recordBreaker(t.kernel, t.verdict == verdictPass)
	case t.admitted:
		o.brk.Release(t.kernel, o.isa.String())
	}
}
