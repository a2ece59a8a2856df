package cv

import (
	"simdstudy/internal/obs"
	"simdstudy/internal/trace"
)

// This file wires the kernel library into the observability layer: every
// public kernel entry point opens an obs.Span (nested under the enclosing
// kernel for composite pipelines like DetectEdges -> SobelFilter, or under
// a harness-provided parent for grid cells and campaign images), and the
// outermost kernel of each call tree folds its dynamic instruction-class
// deltas into the registry's counter families:
//
//	simd_instructions_total{isa,class}  <-> the paper's Section V
//	    per-class dynamic instruction counts
//	simd_bytes_total{isa,dir}           <-> bytes moved by the load/store
//	    classes, the input to the memory-traffic model
//	kernel_runs_total{kernel,isa}
//	kernel_wall_seconds{kernel,isa}     (histogram)
//
// Guard counters and events are recorded in guard.go.

// SetObserver attaches an observability registry to the Ops and both
// emulation units; nil detaches. Kernel spans, instruction-class counters
// and guard action metrics report there.
func (o *Ops) SetObserver(reg *obs.Registry) {
	o.Obs = reg
	o.n.Obs = reg
	o.s.Obs = reg
}

// SetSpanParent nests subsequently started kernel spans under sp. The
// harness points this at its grid-cell and campaign-image spans so a
// whole run renders as cells -> kernels -> guard actions in the Chrome
// trace. A nil sp restores root spans.
func (o *Ops) SetSpanParent(sp *obs.Span) { o.obsParent = sp }

// kernelFrame tracks one in-flight kernel entry point's span and the
// trace snapshot its instruction delta is computed against.
type kernelFrame struct {
	sp      *obs.Span
	classes [trace.NumClasses]uint64
	loadB   uint64
	storeB  uint64
}

// curSpan returns the innermost open kernel span, or the external parent.
func (o *Ops) curSpan() *obs.Span {
	if n := len(o.frames); n > 0 {
		return o.frames[n-1].sp
	}
	return o.obsParent
}

// openSpan opens the span of public entry point name, nested under the
// enclosing kernel's span or the external parent, and snapshots the trace
// counters its instruction delta is computed against. Without a registry it
// records nothing.
func (o *Ops) openSpan(name string) {
	if o.Obs == nil {
		return
	}
	isa := obs.L("isa", o.isa.String())
	var sp *obs.Span
	if parent := o.curSpan(); parent != nil {
		sp = parent.Child("kernel."+name, isa)
	} else {
		sp = o.Obs.StartSpan("kernel."+name, isa)
	}
	if o.traceID != "" {
		sp.SetAttr("trace_id", o.traceID)
	}
	o.Obs.Counter("kernel_runs_total", obs.L("kernel", name), isa).Inc()
	f := kernelFrame{sp: sp}
	if o.T != nil {
		f.classes = o.T.Classes()
		f.loadB = o.T.BytesLoaded()
		f.storeB = o.T.BytesStored()
	}
	o.frames = append(o.frames, f)
}

// closeSpan closes the span openSpan opened, attributing the instruction
// delta to it; the outermost kernel also folds the per-class deltas into
// the registry counters (inner kernels skip that so composite pipelines
// are not double counted).
func (o *Ops) closeSpan(name string, err error) {
	if o.Obs == nil || len(o.frames) == 0 {
		return
	}
	f := o.frames[len(o.frames)-1]
	o.frames = o.frames[:len(o.frames)-1]
	isa := obs.L("isa", o.isa.String())
	var total uint64
	if o.T != nil {
		now := o.T.Classes()
		for c := 0; c < trace.NumClasses; c++ {
			d := now[c] - f.classes[c]
			total += d
			if d > 0 && len(o.frames) == 0 {
				o.Obs.Counter("simd_instructions_total",
					obs.L("class", trace.Class(c).String()), isa).Add(d)
			}
		}
		if len(o.frames) == 0 {
			if d := o.T.BytesLoaded() - f.loadB; d > 0 {
				o.Obs.Counter("simd_bytes_total", obs.L("dir", "load"), isa).Add(d)
			}
			if d := o.T.BytesStored() - f.storeB; d > 0 {
				o.Obs.Counter("simd_bytes_total", obs.L("dir", "store"), isa).Add(d)
			}
		}
	}
	f.sp.AddInstr(total)
	if err != nil {
		f.sp.SetAttr("error", err.Error())
	}
	dur := f.sp.End()
	h := o.Obs.Histogram("kernel_wall_seconds", nil, obs.L("kernel", name), isa)
	if o.traceID != "" {
		// The wall-clock observation carries the request's trace ID as an
		// OpenMetrics exemplar: a bad latency bucket points straight at a
		// request whose span tree explains it.
		h.ObserveExemplar(dur.Seconds(), o.traceID, o.Obs.Now())
	} else {
		h.Observe(dur.Seconds())
	}
}

// instrumentFree reports that no per-call state (call tree, span frames,
// breaker, supervision, audit scoring) needs maintaining for this Ops, so
// call runs an unbound body directly.
func (o *Ops) instrumentFree() bool {
	return o.brk == nil && o.Obs == nil && o.sup == nil && o.wd == nil && o.aud == nil
}
