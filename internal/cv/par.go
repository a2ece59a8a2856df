package cv

//go:generate go run ../../cmd/lanegen

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync/atomic"

	"simdstudy/internal/faults"
	"simdstudy/internal/neon"
	"simdstudy/internal/par"
	"simdstudy/internal/sse2"
	"simdstudy/internal/super"
)

// This file is the kernel library's parallel dispatch layer. Every kernel
// pass — a row loop for the stencil kernels, an element loop for the flat
// ones — routes through parRows or parFlat, which split the pass into
// deterministic bands (see internal/par) and run each band on a clone of
// the Ops. A fused sweep (fused.go) is one such section over its output
// rows, each band running every stage of its strips inline (sweepPass).
// Each band clone is set up the same way:
//
//   - the clone's NEON/SSE2 units tally into private, unsynchronized
//     trace.Tally arrays that fold into the parent's counter under one lock
//     when the band completes, so the per-class instruction counts are
//     bit-identical to a serial run (band boundaries never split a vector
//     iteration: rows are the natural quantum for stencil passes, and flat
//     passes band on flatQuantum-element boundaries, a multiple of every
//     vector width used here);
//   - the clone's fault injector is a fork of the parent's plan, reseeded at
//     every row/block boundary from (pass sequence number, row index), so
//     the injection schedule is a pure function of the workload geometry —
//     identical for any worker count — and fork counters join back into the
//     parent plan in band order;
//   - cancellation stays row-granular: each band polls the bound context
//     per row, and the first band to unwind (cancellation or any other
//     panic) flips a shared stop flag that makes sibling bands unwind at
//     their next row boundary.
//
// The serial case (Workers=1, the default) runs the same banded bodies
// inline with no goroutines and no steady-state allocation: on the parent
// Ops when it is untraced, else on one pooled clone (serialOps) whose units
// tally for the parent's counter but share its injector unforked.
// Parallelism is an opt-in scheduling change, never a semantic one.
//
// Stencil halos need no special machinery: the vertical passes read only
// the source plane of the pass (never its destination), so a band may read
// rows owned by its neighbors — including the clamped border rows — without
// ordering concerns. Pass boundaries (horizontal -> vertical) are full
// barriers because parRows returns only when every band has finished.

// ParallelConfig sizes intra-kernel parallelism; see par.Config.
type ParallelConfig = par.Config

// flatQuantum is the element-block size flat (elementwise) kernels band on.
// It is a multiple of every vector width used by the flat kernels (8 and 16
// elements), so a band boundary always falls between vector iterations and
// the vector/tail split — and with it the recorded instruction stream — is
// identical to a serial sweep for every band layout.
const flatQuantum = 4096

// SetParallel configures intra-kernel parallelism for this Ops. Workers 0
// or 1 selects pure serial execution (so the zero ParallelConfig is the
// safe default everywhere); a negative Workers means one band per
// available core; MinRowsPerBand<=0 uses par.DefaultMinRows.
func (o *Ops) SetParallel(cfg ParallelConfig) {
	if cfg.Workers == 0 || cfg.Workers == 1 {
		o.par = ParallelConfig{Workers: 1}
		return
	}
	o.par = cfg.Normalized()
}

// Parallel returns the configured parallelism (zero value: serial).
func (o *Ops) Parallel() ParallelConfig { return o.par }

// bandStopped is the private unwind token a band raises when a sibling has
// already failed; the dispatcher swallows it and rethrows the original.
type bandStopped struct{}

// stripeSalt derives the injector stream position for one row (or element
// block) of one parallel section. The section salt comes from the Ops'
// monotone pass sequence — so a guard retry of the same pass draws fresh
// streams and transient-fault recovery stays possible — and the final
// mixing happens in Plan.Reseed.
func stripeSalt(section uint64, stripe int) uint64 {
	return section<<24 + uint64(stripe)
}

// sectionReseeder returns the injector's stream-seeding interface when the
// attached injector supports it, else nil (no per-row reseeding: custom
// injectors see the historical continuous stream).
func (o *Ops) sectionReseeder() faults.Reseeder {
	if o.injector == nil {
		return nil
	}
	rs, _ := o.injector.(faults.Reseeder)
	return rs
}

// nBands returns the band count for a pass of n units at least minPer
// units per band. A panic-quarantined call tree always runs one band: the
// supervisor has judged the pair's parallel bands poisonous.
func (o *Ops) nBands(n, minPer int) int {
	if o.par.Workers <= 1 || o.tree.serial {
		return 1
	}
	return par.NBands(n, o.par.Workers, minPer)
}

// sweepBands returns the band count of a fused sweep over h output rows.
// Bands recompute their seam rows (fused.go), so a sweep whose instruction
// stream something records — a trace or a fault injector — runs as one
// band, whose rows and passes are exactly the staged path's.
func (o *Ops) sweepBands(h int) int {
	if o.T != nil || o.injector != nil {
		return 1
	}
	return o.nBands(h, o.par.MinRowsPerBand)
}

// getBand returns a pooled Ops clone wired for one band of a parallel
// section: units with private tallies for the parent's counter, forked
// injector, the parent's context and the section's shared stop flag.
func (o *Ops) getBand(stop *atomic.Bool) *Ops { return o.clone(stop, true) }

// serialOps returns the Ops a plain serial pass runs on: o itself when
// untraced; else a pooled clone whose units tally privately, since o's own
// units are shared (see NewOps), holding o's injector unforked so the fault
// stream is exactly the serial one. The caller returns a clone with putBand.
func (o *Ops) serialOps() *Ops {
	if o.T == nil {
		return o
	}
	return o.clone(nil, false)
}

func (o *Ops) clone(stop *atomic.Bool, fork bool) *Ops {
	b, _ := o.bandPool.Get().(*Ops)
	if b == nil {
		b = &Ops{n: neon.New(nil), s: sse2.New(nil)}
	}
	b.isa = o.isa
	b.useOptimized = o.useOptimized
	b.stop = stop
	b.ctx = o.ctx
	b.ctxRows = 0
	b.T, b.n.T, b.s.T = o.T, o.T, o.T
	if o.injector != nil {
		inj := o.injector
		if f, ok := inj.(faults.Forker); ok && fork {
			inj = f.Fork()
		}
		b.injector = inj
		b.n.F, b.s.F = inj, inj
		b.reseed, _ = inj.(faults.Reseeder)
	}
	return b
}

// putBand merges a band clone's results back into the parent — its unit
// tallies fold into the parent's counter, injector counters via
// Forker.Join, context row accounting — and recycles the clone.
func (o *Ops) putBand(b *Ops) {
	b.n.Flush()
	b.s.Flush()
	if b.injector != nil {
		if f, ok := o.injector.(faults.Forker); ok && b.injector != o.injector {
			f.Join(b.injector)
		}
		b.injector, b.reseed = nil, nil
		b.n.F, b.s.F = nil, nil
	}
	if o.ctx != nil {
		o.ctxRows += b.ctxRows
	}
	b.ctx = nil
	b.stop = nil
	b.heart = nil
	b.ctxRows = 0
	o.bandPool.Put(b)
}

// stallUnwind is the private unwind token a dispatcher raises after the
// watchdog stalled its section; the call frame converts it into the entry
// point's typed *super.StallError return.
type stallUnwind struct{ err *super.StallError }

// isBandStopped is the sentinel filter for par.FirstPanic.
func isBandStopped(v any) bool { _, ok := v.(bandStopped); return ok }

// bandProf runs fn with (kernel, isa, band) pprof labels on the executing
// goroutine, so CPU profiles of a loaded server attribute samples to the
// kernel and band doing the work rather than to an anonymous pool worker.
// Labels are only applied on instrumented Ops (tree.kernel is set exactly
// when the call frame tracks the call tree): the plain fast path keeps its
// zero-overhead property, and the parallel path already allocates per
// section so the label set is noise there.
func (o *Ops) bandProf(band int, fn func()) {
	if o.tree.kernel == "" {
		fn()
		return
	}
	pprof.Do(context.Background(), pprof.Labels(
		"kernel", o.tree.kernel,
		"isa", o.isa.String(),
		"band", strconv.Itoa(band),
	), func(context.Context) { fn() })
}

// rethrow repanics the first real (non-sentinel) band panic, in band order,
// so cancellation unwinds and genuine bugs surface exactly as they would
// serially.
func rethrow(panics []any) {
	if p := par.FirstPanic(panics, isBandStopped); p != nil {
		panic(p)
	}
}

// finishSection closes out a watched or parallel section: real band panics
// (and cancellation) rethrow first, then a stall verdict that actually
// aborted work — some band unwound on the stop flag — is raised for the
// call frame. A stall flagged after every band already completed is ignored:
// the output is whole, so failing the call would discard correct work.
func finishSection(sec *super.Section, panics []any) {
	stopped := false
	for _, p := range panics {
		if isBandStopped(p) {
			stopped = true
			break
		}
	}
	rethrow(panics)
	if stopped && sec != nil {
		if se := sec.Stalled(); se != nil {
			panic(stallUnwind{se})
		}
	}
}

// watchSerial runs a serial pass under a watchdog section: the pass's Ops
// (see serialOps) temporarily carries the section's single heart and stop
// flag, so the existing tick plumbing provides both the
// heartbeat and the abort point, exactly as on a band clone.
func (o *Ops) watchSerial(sec *super.Section, stop *atomic.Bool, loop func()) {
	o.stop, o.heart = stop, sec.Heart(0)
	defer func() {
		o.stop, o.heart = nil, nil
		if r := recover(); r != nil {
			if isBandStopped(r) {
				if se := sec.Stalled(); se != nil {
					panic(stallUnwind{se})
				}
			}
			panic(r)
		}
	}()
	loop()
}

// twins are a body's lane twins (lanes_gen.go): its plain twin, then its
// skeleton, which counts what the plain twin's intrinsics did not.
type twins[F any] [2]F

// parRows runs body(b, a, y) for every row y in [0, rows), banded across
// the configured workers. A is the pass's argument bundle; bodies are
// package-level functions so the serial path allocates nothing. twin is
// body's lane twins, which a band runs in its place where it can.
func parRows[A any](o *Ops, rows int, a A, body func(b *Ops, a A, y int), twin *twins[func(b *Ops, a A, y int)]) {
	runBands(o, units[A]{row: body, rowLanes: twin, n: rows}, a)
}

// lastPass runs the scalar row body of a kernel's output pass: every row
// through parRows, or on a row referee just the rows the guard compares,
// so the referee computes one output row per sampled row rather than the
// whole window around it.
func lastPass[A any](o *Ops, rows int, a A, body func(b *Ops, a A, y int)) {
	if o.refOnly == nil {
		parRows(o, rows, a, body, nil)
		return
	}
	for _, y := range o.refOnly {
		body(o, a, y)
	}
}

// parFlat runs body(b, a, lo, hi) over [0, n) in flatQuantum-aligned
// blocks, banded across the configured workers. Only the final block can be
// a partial quantum, so the scalar tail lives in exactly one band. twin is
// body's lane twins, as for parRows.
func parFlat[A any](o *Ops, n int, a A, body func(b *Ops, a A, lo, hi int), twin *twins[func(b *Ops, a A, lo, hi int)]) {
	runBands(o, units[A]{flat: body, flatLanes: twin, end: n, n: (n + flatQuantum - 1) / flatQuantum}, a)
}

// sweepRows runs rows [y0, y1) of one fused stage on b, the Ops a band of
// the sweep o opened runs on. Rows keep their absolute plane indices, so
// the fault injector's per-row reseed positions are a pure function of
// the row like the staged path's, and the watchdog heart beats once per
// row exactly as there.
func sweepRows[A any](o, b *Ops, y0, y1 int, a A, body func(b *Ops, a A, y int), twin *twins[func(b *Ops, a A, y int)]) {
	sweepPass(o, b, units[A]{row: body, rowLanes: twin, first: y0, n: y1 - y0}, a)
}

// sweepFlat is sweepRows for a flat stage over elements [e0, e1). The
// block grid is anchored at e0, so when the caller advances e0 in
// flatQuantum multiples (as the fused combine's absolute-aligned chunk
// gating does) every block except the final one is a full quantum and the
// vector/tail split — and with it the recorded instruction stream —
// matches a single staged sweep exactly.
func sweepFlat[A any](o, b *Ops, e0, e1 int, a A, body func(b *Ops, a A, lo, hi int), twin *twins[func(b *Ops, a A, lo, hi int)]) {
	sweepPass(o, b, units[A]{flat: body, flatLanes: twin, first: e0, end: e1, n: (e1 - e0 + flatQuantum - 1) / flatQuantum}, a)
}

// sweepPass runs one stage of one strip of a fused sweep inline on b. It
// is numbered as a pass of o, drawing the fault streams a parRows section
// over the same units would, so a one-band sweep's fault schedule is the
// staged path's.
func sweepPass[A any](o, b *Ops, u units[A], a A) {
	if u.n <= 0 {
		return
	}
	rs := o.sectionReseeder()
	var salt uint64
	if rs != nil {
		salt = o.passSeq.Add(1)
	}
	u.run(b, a, 0, u.n, rs, salt)
}

// units is one pass's work for runBands, numbered 0..n-1: rows first+i
// when row (or its twins rowLanes) is set, else the flatQuantum-element
// blocks of [first, end), anchored at first — or, when band is set, the
// output rows of a fused sweep, each band of which band sweeps itself
// (fused.go). The pass's argument bundle travels beside it, so a closure
// capturing both copies each by value when small.
type units[A any] struct {
	row           func(b *Ops, a A, y int)
	rowLanes      *twins[func(b *Ops, a A, y int)]
	flat          func(b *Ops, a A, lo, hi int)
	flatLanes     *twins[func(b *Ops, a A, lo, hi int)]
	band          func(b *Ops, a A, y0, y1 int)
	first, end, n int
}

// run runs units [lo, hi) on b with args a, reseeding rs (when set) at
// each unit from its stripe: the row, or the block's quantum index in the
// plane. A row tick counts toward the bound context's progress; a block
// tick only polls. The body is chosen once, here: a plain lane twin when
// b's unit allows one (see LaneTwin), followed on a traced unit by the
// twin's skeleton, else the instrumented body.
func (u units[A]) run(b *Ops, a A, lo, hi int, rs faults.Reseeder, salt uint64) {
	if u.band != nil {
		u.band(b, a, u.first+lo, u.first+hi)
		return
	}
	row, flat := u.row, u.flat
	var rowSkel func(b *Ops, a A, y int)
	var flatSkel func(b *Ops, a A, lo, hi int)
	if traced, ok := b.laneTwin(); ok && u.rowLanes != nil {
		row = u.rowLanes[0]
		if traced {
			rowSkel = u.rowLanes[1]
		}
	} else if ok && u.flatLanes != nil {
		flat = u.flatLanes[0]
		if traced {
			flatSkel = u.flatLanes[1]
		}
	}
	for i := lo; i < hi; i++ {
		if row != nil {
			y := u.first + i
			if rs != nil {
				rs.Reseed(stripeSalt(salt, y))
			}
			row(b, a, y)
			if rowSkel != nil {
				rowSkel(b, a, y)
			}
			b.tick(true)
			continue
		}
		c := u.first + i*flatQuantum
		if rs != nil {
			rs.Reseed(stripeSalt(salt, c/flatQuantum))
		}
		end := min(c+flatQuantum, u.end)
		flat(b, a, c, end)
		if flatSkel != nil {
			flatSkel(b, a, c, end)
		}
		b.tick(false)
	}
}

// laneTwin is LaneTwin of o's unit for its ISA, the one count tallies on.
func (o *Ops) laneTwin() (traced, ok bool) {
	if o.isa == ISASSE2 {
		return o.s.LaneTwin()
	}
	return o.n.LaneTwin()
}

// runBands is the one band runner behind every pass and fused sweep. It
// splits u into deterministic bands (par.Span over units) and runs them in
// one of three modes: inline on serialOps with no goroutine, section or
// allocation (one band, no watchdog); inline under a watchdog section (one
// band); or on pooled band clones through par.Run. A fused sweep's stages
// number their own passes (sweepPass), so the sweep itself draws none.
func runBands[A any](o *Ops, u units[A], a A) {
	if u.n <= 0 {
		return
	}
	var nb int
	switch {
	case u.band != nil:
		nb = o.sweepBands(u.n)
	case u.row != nil:
		nb = o.nBands(u.n, o.par.MinRowsPerBand)
	default:
		nb = o.nBands(u.n, 1)
	}
	rs := o.sectionReseeder()
	var salt uint64
	if rs != nil && u.band == nil {
		salt = o.passSeq.Add(1)
	}
	if nb == 1 && o.wd == nil {
		b := o.serialOps()
		if b != o {
			defer o.putBand(b)
		}
		u.run(b, a, 0, u.n, rs, salt)
		return
	}
	// Copy the parameters into branch-locals before the closures capture
	// them: capturing a parameter itself would move it to the heap at
	// function entry and cost the serial path an allocation per pass.
	uu, aa := u, a
	var stop atomic.Bool
	var sec *super.Section
	if o.wd != nil {
		sec = o.wd.Section(o.tree.kernel, o.isa.String(), nb, func() { stop.Store(true) })
		defer sec.Close()
	}
	if nb == 1 {
		b := o.serialOps()
		if b != o {
			defer o.putBand(b)
		}
		b.watchSerial(sec, &stop, func() { uu.run(b, aa, 0, uu.n, rs, salt) })
		return
	}
	o.sections.Add(1)
	bands := make([]*Ops, nb)
	for i := range bands {
		bands[i] = o.getBand(&stop)
		if sec != nil {
			bands[i].heart = sec.Heart(i)
		}
	}
	panics := par.Run(nb, func(i int) {
		defer func() {
			if r := recover(); r != nil {
				stop.Store(true)
				panic(r)
			}
		}()
		o.bandProf(i, func() {
			b := bands[i]
			lo, hi := par.Span(i, nb, uu.n)
			uu.run(b, aa, lo, hi, b.reseed, salt)
		})
	})
	for _, b := range bands {
		o.putBand(b)
	}
	finishSection(sec, panics)
}
