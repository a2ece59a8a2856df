// Package cv is a from-scratch reimplementation of the OpenCV core and
// imgproc routines benchmarked by the paper: saturating float-to-short
// conversion, binary image thresholding, Gaussian blur, Sobel filtering and
// edge detection.
//
// Every operation has two code paths, mirroring the paper's methodology:
//
//   - a scalar path, the portable C++-equivalent source the compiler sees
//     (and the input to the auto-vectorization model in internal/vectorizer);
//   - a hand-optimized SIMD path written against the NEON or SSE2 intrinsic
//     emulation layer, transcribed from the paper's listings where given.
//
// Like OpenCV, the SIMD path is toggled with SetUseOptimized; when off (or
// when the Ops has ISA ISAScalar), operations fall back to scalar code.
// Dynamic instruction traces are recorded into the attached trace.Counter.
package cv

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"simdstudy/internal/faults"
	"simdstudy/internal/image"
	"simdstudy/internal/integrity"
	"simdstudy/internal/neon"
	"simdstudy/internal/obs"
	"simdstudy/internal/resilience"
	"simdstudy/internal/sse2"
	"simdstudy/internal/super"
	"simdstudy/internal/trace"
)

// ISA selects which intrinsic family the hand-optimized paths use.
type ISA int

// Supported instruction-set families.
const (
	ISAScalar ISA = iota // no SIMD: always scalar
	ISANEON              // ARMv7 Advanced SIMD
	ISASSE2              // Intel SSE2
)

// String names the ISA.
func (i ISA) String() string {
	switch i {
	case ISAScalar:
		return "scalar"
	case ISANEON:
		return "neon"
	case ISASSE2:
		return "sse2"
	}
	return fmt.Sprintf("isa(%d)", int(i))
}

// Ops is a handle to the library configured for one ISA, analogous to an
// OpenCV build compiled for one target.
//
// Every public entry point runs in one call frame (ctx.go) that binds the
// context, opens the span, admits the call tree through the breaker set
// (which also holds every quarantine), and classifies how the call ended.
// Each XCtx method holds its kernel's body; the plain X is XCtx with no
// context.
//
// A plain Ops — no breaker set, observer, supervisor, watchdog, guard mode,
// or bound context — is safe for concurrent use: its call frame writes
// nothing, and the trace counter, the parallel band pool and the pass
// sequence are all synchronized, so independent goroutines may run kernels
// on private images through one shared Ops. The stateful extensions
// (SetGuarded, SetBreakers, SetObserver, the Ctx variants) keep per-call
// state on the Ops and remain single-caller-at-a-time, as the harness uses
// them.
type Ops struct {
	isa          ISA
	useOptimized bool

	// Parallel banding state (see par.go). par sizes intra-kernel
	// parallelism (zero: serial); passSeq numbers parallel sections so
	// fault streams are per-(pass, row) deterministic; sections counts the
	// par.Run barriers this Ops has paid, which tests pin per call;
	// bandPool recycles per-band Ops clones; stop and reseed are set only
	// on band clones.
	par      ParallelConfig
	passSeq  atomic.Uint64
	sections atomic.Uint64
	bandPool sync.Pool
	stop     *atomic.Bool
	reseed   faults.Reseeder

	T *trace.Counter
	n *neon.Unit
	s *sse2.Unit

	// Guarded-mode state (see guard.go).
	guarded      bool
	inGuard      bool
	policy       GuardPolicy
	injector     faults.Injector
	kernelFaults []KernelFault
	fallbacks    int
	// refOnly is set only on a row referee's Ops (rowReferee): the rows of
	// the current source window whose output the guard compares. A kernel
	// whose last pass is a scalar row body computes just those rows of it
	// (lastPass); nil computes every row.
	refOnly []int

	// Integrity audit state (see audit.go). aud, when set, samples SIMD
	// kernel calls for redundant scalar re-execution; a sampled call that
	// diverges is repaired from the reference and recorded as silent
	// corruption.
	aud *integrity.Auditor

	// Resilience and supervision state (see ctx.go, guard.go and par.go).
	// brk, when set, admits each outermost kernel call, takes the call
	// tree's one verdict and latches its quarantines; sup names (kernel,
	// ISA) pairs that panic repeatedly; wd watches parallel sections for
	// wedged bands. tree is the
	// in-flight call tree the outermost frame opened; heart is set only on
	// band clones (and, transiently, on a watched serial pass).
	brk   *resilience.BreakerSet
	wd    *super.Watchdog
	sup   *super.Supervisor
	tree  callTree
	heart *super.Heart

	// The context the binding call frame bound, the rows completed under
	// it (partial-progress accounting), and the trace ID it carries
	// (request tracing: kernel spans and wall-clock histogram exemplars are
	// stamped with it).
	ctx     context.Context
	ctxRows int
	traceID string

	// Observability state (see observe.go). Obs is optional; when nil all
	// span and metric instrumentation is a no-op.
	Obs       *obs.Registry
	obsParent *obs.Span
	frames    []kernelFrame

	// Fusion state (see fused.go). fuse selects cache-blocked stage fusion
	// for the multi-stage pipelines; fusedGeoms caches the planned strip
	// geometry per (kernel, shape) so steady-state fused calls stay
	// allocation-free.
	fuse       FuseConfig
	fusedGeoms []fusedGeom
}

// NewOps returns an Ops for the given ISA, recording dynamic instructions
// into t (which may be nil). SIMD optimizations start enabled, as in
// OpenCV builds with SSE2/NEON baked in.
//
// The Ops' own units are shared: a plain Ops may be called from several
// goroutines, so they record straight into t. They retire only per-pass
// setup (vector constants) and bulk accounting; the row and element loops
// run on pooled clones whose units tally privately (see par.go).
func NewOps(isa ISA, t *trace.Counter) *Ops {
	o := &Ops{
		isa:          isa,
		useOptimized: true,
		T:            t,
		n:            neon.New(t),
		s:            sse2.New(t),
	}
	o.n.Share()
	o.s.Share()
	return o
}

// SetUseOptimized toggles the hand-optimized SIMD code paths, the
// equivalent of cv::setUseOptimized(bool).
func (o *Ops) SetUseOptimized(on bool) { o.useOptimized = on }

// UseOptimized reports whether SIMD paths are active for the current call:
// the latch must be on, the ISA must have SIMD, and the call tree must not
// be demoted — by an open or stuck-open breaker (see ctx.go).
func (o *Ops) UseOptimized() bool {
	return o.useOptimized && o.isa != ISAScalar && !o.tree.scalar
}

// path returns the code path the current call runs: the Ops' ISA when
// UseOptimized, else ISAScalar.
func (o *Ops) path() ISA {
	if o.UseOptimized() {
		return o.isa
	}
	return ISAScalar
}

// SetBreakers attaches a circuit-breaker set consulted at every outermost
// guarded kernel call: a per-(kernel, ISA) breaker that is open demotes that
// call to the scalar path, and guard verdicts feed back into it so a flaky
// unit re-arms via half-open probes instead of staying dead forever. nil
// detaches. The breaker only sees traffic in guarded or audited mode
// (SetGuarded / SetAuditor) — without a referee or sampled audit there is
// no success/failure signal to drive it.
func (o *Ops) SetBreakers(b *resilience.BreakerSet) { o.brk = b }

// SetWatchdog attaches a stall watchdog: every parallel section (and, when
// a watchdog is attached, every serial pass) registers per-band heartbeats
// that the kernel row loops beat, and a band silent past the watchdog
// deadline stalls the section — siblings are cancelled through the stop
// flag and the entry point returns a typed *super.StallError that is fed to
// the kernel's breaker as a failure. nil detaches.
func (o *Ops) SetWatchdog(w *super.Watchdog) { o.wd = w }

// SetSupervisor attaches a panic supervisor: a panic escaping an outermost
// kernel call is recorded against its (kernel, ISA) pair, and a pair that
// reaches the supervisor's quarantine policy has its breaker latched
// stuck-open for panic, running scalar-and-serial from then on. Without a
// breaker set (SetBreakers) panics are only counted. nil detaches.
func (o *Ops) SetSupervisor(s *super.Supervisor) { o.sup = s }

// ResumeState is the per-Ops execution position a checkpointed campaign
// journals with each completed image: the pass sequence that salts the
// per-row fault streams, and the guard's cumulative fallback/kill-switch
// state. Restoring it into a fresh Ops after a crash makes the remaining
// images draw exactly the streams (and guard decisions) the killed process
// would have drawn.
type ResumeState struct {
	PassSeq      uint64 `json:"pass_seq"`
	Fallbacks    int    `json:"fallbacks"`
	UseOptimized bool   `json:"use_optimized"`
}

// ResumeState snapshots the Ops' checkpointable execution position.
func (o *Ops) ResumeState() ResumeState {
	return ResumeState{
		PassSeq:      o.passSeq.Load(),
		Fallbacks:    o.fallbacks,
		UseOptimized: o.useOptimized,
	}
}

// SetResumeState restores a position snapshotted by ResumeState.
func (o *Ops) SetResumeState(st ResumeState) {
	o.passSeq.Store(st.PassSeq)
	o.fallbacks = st.Fallbacks
	o.useOptimized = st.UseOptimized
}

// ISA returns the configured instruction set.
func (o *Ops) ISA() ISA { return o.isa }

// scalarOverhead records per-iteration scalar loop bookkeeping (index
// increment, compare, branch) into the trace.
func (o *Ops) scalarOverhead(iters uint64) {
	if o.T == nil {
		return
	}
	o.count(opAddIndex, iters)
	o.count(opCmpBLoop, iters)
}

// count tallies n instructions the kernel accounts for directly (scalar
// bodies, tails, bookkeeping) on the unit of o's ISA, beside the unit's
// own intrinsics.
func (o *Ops) count(id trace.OpID, n uint64) {
	if o.isa == ISASSE2 {
		o.s.Count(id, n)
	} else {
		o.n.Count(id, n)
	}
}

func sameShape(a, b *image.Mat) error {
	if a.Width != b.Width || a.Height != b.Height {
		return fmt.Errorf("cv: shape mismatch %dx%d vs %dx%d", a.Width, a.Height, b.Width, b.Height)
	}
	return nil
}

func requireKind(m *image.Mat, k image.Type, what string) error {
	if m.Kind != k {
		return fmt.Errorf("cv: %s requires %v image, got %v", what, k, m.Kind)
	}
	return nil
}
