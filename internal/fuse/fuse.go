// Package fuse plans cache-blocked fusion of multi-stage image pipelines.
//
// A staged pipeline (gaussian → sobel → magnitude → NMS) materializes a
// full intermediate plane between stages, paying a DRAM round trip per
// stage once the plane outgrows the last-level cache. Fusion instead
// streams the image through the pipeline in horizontal strips small
// enough that every intermediate row is still cache-resident when its
// consumer reads it: each strip advances every stage a few rows, and
// intermediates live in rolling strip buffers that hold only the rows
// downstream stages still need.
//
// The package is pure geometry and bookkeeping — it decides which rows
// each stage computes per strip (Geometry) and manages the sliding
// windows that hold them (Strip). It runs no kernels; internal/cv
// supplies the row bodies and internal/par the workers.
//
// # Leads and frontiers
//
// A stage with a vertical halo h needs its producer h rows ahead of it:
// sobel's vertical pass at row y reads rows y-1..y+1 of the smoothed
// plane. Propagating that requirement from the last stage backwards
// gives each stage a lead — how many rows past the sweep frontier it
// must have produced. With strip height S, after strip k stage i has
// produced rows [0, Frontier(i,k)] where
//
//	Frontier(i, k) = min(h-1, (k+1)·S - 1 + lead_i)
//
// so per strip each stage computes the half-open row interval
// (Frontier(i,k-1), Frontier(i,k)] — every plane row exactly once
// across the sweep, in the same top-to-bottom order as the staged path.
//
// # Bands
//
// A band-major sweep splits the last stage's rows into bands, and each
// band sweeps its own strips through its own windows (Geometry.Interval).
// A band over rows [y0, y1) starts every stage lead_i rows above y0 and
// ends it lead_i rows below y1-1, clamped to the plane, so the rows
// within a stencil's reach of a seam are computed by both bands that
// share it. Bands therefore read nothing their neighbours write and need
// no barrier between stages; the price is the recomputed seam rows,
// which is why the caller bands only a sweep whose instruction stream
// nothing records.
//
// # Halo-row carry
//
// Between strips, the rows a consumer still needs (its halo above the
// next strip's first row) are carried: Slide copies them to the front
// of the rolling buffer so the live window stays contiguous — vector
// loads and flat chunks never straddle a wrap seam, which a modular
// ring could not guarantee. The carry is a plain copy of already-traced
// rows; it executes no kernel ops, which is why fused trace counters
// stay bit-identical to staged execution.
package fuse

import (
	"fmt"

	"simdstudy/internal/cache"
)

// External marks a stage input that is a caller-supplied full plane
// (the source image) rather than another stage's rolling buffer.
const External = -1

// Input is one plane a stage reads: the producing stage (or External)
// and the vertical halo — how many rows above and below the output row
// the stage reads from it.
type Input struct {
	Stage int
	Halo  int
}

// Stage is one pass of the pipeline. Elem is the element size in bytes
// of its output plane (sizing the rolling buffer). Full marks a stage
// whose output must be materialized as a whole plane anyway (e.g. the
// NMS label plane that hysteresis later walks non-locally); Full stages
// still run strip-by-strip but get no rolling buffer.
type Stage struct {
	Name   string
	Inputs []Input
	Elem   int
	Full   bool
}

// Plan is a declarative pipeline: stages in topological order, each
// reading only earlier stages or External planes.
type Plan struct {
	Name   string
	Stages []Stage
}

// Validate checks topological order, halo and element sanity.
func (p Plan) Validate() error {
	if len(p.Stages) == 0 {
		return fmt.Errorf("fuse: plan %q has no stages", p.Name)
	}
	for i, st := range p.Stages {
		if st.Elem <= 0 {
			return fmt.Errorf("fuse: plan %q stage %d (%s): elem %d", p.Name, i, st.Name, st.Elem)
		}
		for _, in := range st.Inputs {
			if in.Stage != External && (in.Stage < 0 || in.Stage >= i) {
				return fmt.Errorf("fuse: plan %q stage %d (%s) reads stage %d: not topological",
					p.Name, i, st.Name, in.Stage)
			}
			if in.Halo < 0 {
				return fmt.Errorf("fuse: plan %q stage %d (%s): negative halo %d",
					p.Name, i, st.Name, in.Halo)
			}
		}
	}
	return nil
}

// leads propagates halo requirements from consumers to producers:
// lead_i = max over consumers c of (lead_c + halo_{c←i}), with the
// last stage at lead 0 unless something downstream reads it.
func (p Plan) leads() []int {
	lead := make([]int, len(p.Stages))
	for i := len(p.Stages) - 1; i >= 0; i-- {
		for _, in := range p.Stages[i].Inputs {
			if in.Stage == External {
				continue
			}
			if l := lead[i] + in.Halo; l > lead[in.Stage] {
				lead[in.Stage] = l
			}
		}
	}
	return lead
}

// slack returns, per stage, the extra rows beyond its lead that its
// rolling buffer must hold: a consumer c with halo h reaching h rows
// above its own frontier pins rows the producer would otherwise drop
// when the consumer lags the producer by less than h.
func (p Plan) slack(lead []int) []int {
	extra := make([]int, len(p.Stages))
	for c, st := range p.Stages {
		for _, in := range st.Inputs {
			if in.Stage == External {
				continue
			}
			if e := in.Halo - lead[c]; e > extra[in.Stage] {
				extra[in.Stage] = e
			}
		}
	}
	for i := range extra {
		if extra[i] < 0 {
			extra[i] = 0
		}
	}
	return extra
}

// Geometry is a planned sweep in strips of StripRows rows over output
// rows [Y0, Y1) of an H-row plane — the whole plane, or one band of it —
// with per-stage leads and rolling-buffer capacities.
type Geometry struct {
	H         int
	Y0, Y1    int // the last stage's rows: [0, H) for a whole-plane sweep
	StripRows int
	Strips    int
	Lead      []int // rows past the sweep frontier each stage runs ahead
	Cap       []int // rolling-buffer rows per stage (0 for Full stages)

	extra []int // slack rows per stage (see Plan.slack)
	plan  Plan
}

// Geometry plans a whole-plane sweep. stripRows is the nominal rows per
// strip.
func (p Plan) Geometry(h, stripRows int) (Geometry, error) {
	if err := p.Validate(); err != nil {
		return Geometry{}, err
	}
	if h < 1 {
		return Geometry{}, fmt.Errorf("fuse: plan %q: height %d", p.Name, h)
	}
	if stripRows < 1 {
		return Geometry{}, fmt.Errorf("fuse: plan %q: strip rows %d", p.Name, stripRows)
	}
	lead := p.leads()
	g := Geometry{H: h, StripRows: stripRows, Lead: lead, extra: p.slack(lead), plan: p}
	return g.Interval(0, h), nil
}

// Interval is the same sweep restricted to output rows [y0, y1) of the
// plane, as one band of a band-major sweep runs it. Every stage starts
// Lead rows above y0 (clamped to the plane) and ends Lead rows below
// y1-1, so the band recomputes the seam rows its stencils share with the
// neighbouring bands and needs nothing they produce. A window then opens
// holding up to 2·Lead rows beyond its strip, which Cap covers.
func (g Geometry) Interval(y0, y1 int) Geometry {
	g.Y0, g.Y1 = y0, y1
	g.Strips = 0
	if y1 > y0 {
		g.Strips = (y1 - y0 + g.StripRows - 1) / g.StripRows
	}
	g.Cap = make([]int, len(g.plan.Stages))
	for i, st := range g.plan.Stages {
		if st.Full || g.Strips == 0 {
			continue
		}
		c := g.StripRows + g.Lead[i] + g.extra[i]
		if y0 > 0 {
			c = g.StripRows + 2*g.Lead[i] // ≥ the above: extra never exceeds lead
		}
		g.Cap[i] = min(c, g.Frontier(i, g.Strips-1)-g.Frontier(i, -1))
	}
	return g
}

// Frontier is the last row stage i has produced after strip k. Before the
// first strip (k < 0) it is the row above the stage's first: -1 for a
// sweep from the top, Y0-Lead-1 for a band below it.
func (g Geometry) Frontier(i, k int) int {
	if k < 0 {
		return max(-1, g.Y0-1-g.Lead[i])
	}
	return min(g.H-1, g.Y1-1+g.Lead[i], g.Y0+(k+1)*g.StripRows-1+g.Lead[i])
}

// StageRows is the half-open row interval stage i computes during
// strip k. It may be empty for late strips once the stage's lead has
// carried it to the bottom of the plane.
func (g Geometry) StageRows(i, k int) (y0, y1 int) {
	return g.Frontier(i, k-1) + 1, g.Frontier(i, k) + 1
}

// Keep is the first row of stage i's output still needed going into
// strip k: the lowest row any consumer's halo reaches during strips
// ≥ k. Rows above it are dropped by the halo-carry slide.
func (g Geometry) Keep(i, k int) int {
	keep := g.Frontier(i, k-1) + 1 // no consumer: drop all produced rows
	for c := i + 1; c < len(g.plan.Stages); c++ {
		for _, in := range g.plan.Stages[c].Inputs {
			if in.Stage != i {
				continue
			}
			if need := g.Frontier(c, k-1) + 1 - in.Halo; need < keep {
				keep = need
			}
		}
	}
	if keep < 0 {
		keep = 0
	}
	return keep
}

// AutoStripRows picks the strip height whose rolling buffers for a
// w-wide image fit the fusion budget — half the last (largest) modeled
// cache level, so the strips' working set coexists with the source and
// output streams. Defaults to a 256 KiB budget with no cache model and
// clamps to [4, h].
func (p Plan) AutoStripRows(h, w int, caches []cache.Config) int {
	budget := 256 << 10
	if len(caches) > 0 {
		budget = caches[len(caches)-1].SizeBytes / 2
	}
	if p.Validate() != nil {
		return clampStrip(8, h)
	}
	lead := p.leads()
	extra := p.slack(lead)
	perRow, fixed := 0, 0
	for i, st := range p.Stages {
		if st.Full {
			continue
		}
		perRow += w * st.Elem
		fixed += w * st.Elem * (lead[i] + extra[i])
	}
	if perRow == 0 {
		return h
	}
	return clampStrip((budget-fixed)/perRow, h)
}

func clampStrip(s, h int) int {
	if s < 4 {
		s = 4
	}
	if s > h {
		s = h
	}
	return s
}

// Strip is a rolling window over one stage's output plane: rows
// [Lo, Lo+live) stored contiguously at the front of a pooled buffer.
// Keeping the window contiguous (rather than addressing rows modulo
// the capacity) means row slices and multi-row vector loads never
// cross a wrap seam.
type Strip[T any] struct {
	buf  []T
	w    int
	rows int
	lo   int
	hi   int // last produced row, lo-1 when empty
}

// Bind points the window at a pooled backing buffer of at least
// rows·w elements and resets it to empty at row 0.
func (s *Strip[T]) Bind(buf []T, w, rows int) {
	if len(buf) < w*rows {
		panic(fmt.Sprintf("fuse: strip backing %d < %d rows × %d", len(buf), rows, w))
	}
	s.buf, s.w, s.rows = buf[:w*rows], w, rows
	s.lo, s.hi = 0, -1
}

// Lo is the first live row.
func (s *Strip[T]) Lo() int { return s.lo }

// Hi is the last produced row (Lo-1 when the window is empty).
func (s *Strip[T]) Hi() int { return s.hi }

// Buf is the backing slice; Buf()[0:] is row Lo. Kernel bodies that
// span several rows index it directly with (y-Lo)·w.
func (s *Strip[T]) Buf() []T { return s.buf }

// Produce extends the live window through row hi, checking capacity.
// The caller then writes rows (old Hi, hi] via Buf.
func (s *Strip[T]) Produce(hi int) {
	if hi <= s.hi {
		return
	}
	if hi-s.lo+1 > s.rows {
		panic(fmt.Sprintf("fuse: window [%d,%d] exceeds %d-row capacity", s.lo, hi, s.rows))
	}
	s.hi = hi
}

// Slide is the halo-row carry: it drops rows above keep and copies the
// surviving rows to the front of the buffer so the window stays
// contiguous. A plain memmove of already-computed rows — it executes
// no kernel ops, so it leaves trace counters untouched.
func (s *Strip[T]) Slide(keep int) {
	if keep <= s.lo {
		return
	}
	if keep > s.hi {
		s.lo, s.hi = keep, keep-1
		return
	}
	live := (s.hi - keep + 1) * s.w
	copy(s.buf[:live], s.buf[(keep-s.lo)*s.w:(s.hi-s.lo+1)*s.w])
	s.lo = keep
}
