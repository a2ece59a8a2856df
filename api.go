// Package simdstudy is a full reproduction, in pure Go, of "Use of SIMD
// Vector Operations to Accelerate Application Code Performance on
// Low-Powered ARM and Intel Platforms" (IPDPS Workshops / IPPS 2013).
//
// The paper compares hand-written NEON and SSE2 intrinsic kernels against
// gcc auto-vectorization across ten ARM and Intel platforms using five
// OpenCV image processing benchmarks. Go has no SIMD intrinsics, so this
// library substitutes bit-exact software emulation of both intrinsic sets
// (with dynamic instruction accounting), a gcc-4.6-style auto-vectorization
// model over a loop IR, and a calibrated timing model of the ten platforms
// (pipeline + cache hierarchy + memory bandwidth). See DESIGN.md for the
// full system inventory and EXPERIMENTS.md for paper-vs-measured results.
//
// This package is the public facade: the image substrate, the OpenCV-like
// kernel library, the intrinsic emulation layers, the platform catalogue,
// the timing and compiler models, and the grid, fault-injection, audit,
// metrics and memoization entry points that the programs in examples/ and
// this package's Example tests use. Every name here has such a user; the
// binaries under cmd/ reach further into internal/.
package simdstudy

import (
	"context"

	"simdstudy/internal/asmgen"
	"simdstudy/internal/cv"
	"simdstudy/internal/faults"
	"simdstudy/internal/harness"
	"simdstudy/internal/image"
	"simdstudy/internal/integrity"
	"simdstudy/internal/memo"
	"simdstudy/internal/neon"
	"simdstudy/internal/obs"
	"simdstudy/internal/platform"
	"simdstudy/internal/sse2"
	"simdstudy/internal/timing"
	"simdstudy/internal/trace"
	"simdstudy/internal/vectorizer"
)

// --- Image substrate ---

// Mat is a single-channel image (see internal/image).
type Mat = image.Mat

// Resolution is an image size; the paper uses four (0.3 to 8 Mpx).
type Resolution = image.Resolution

// Image element types.
const (
	U8  = image.U8
	S16 = image.S16
)

// The paper's smallest and largest camera resolutions.
var (
	Res03MP = image.Res03MP
	Res8MP  = image.Res8MP
)

// Resolutions lists the paper's image sizes smallest first.
func Resolutions() []Resolution { return image.Resolutions }

// NewMat allocates a zeroed image, panicking on invalid arguments.
func NewMat(width, height int, kind image.Type) *Mat { return image.NewMat(width, height, kind) }

// Synthetic generates the deterministic synthetic photograph used in place
// of the paper's camera images.
func Synthetic(res Resolution, seed uint64) *Mat { return image.Synthetic(res, seed) }

// SyntheticF32 generates a float image for the conversion benchmark.
func SyntheticF32(res Resolution, seed uint64) *Mat { return image.SyntheticF32(res, seed) }

// WritePGM encodes an image in the uncompressed format used by the tooling.
var WritePGM = image.WritePGM

// --- Kernel library (the OpenCV core/imgproc analogue) ---

// Ops is the kernel library configured for one ISA; see internal/cv.
type Ops = cv.Ops

// ISA selects the intrinsic family of the hand-optimized paths.
type ISA = cv.ISA

// Supported ISAs.
const (
	ISAScalar = cv.ISAScalar
	ISANEON   = cv.ISANEON
	ISASSE2   = cv.ISASSE2
)

// ThreshTrunc is the thresholding rule of the paper's benchmark 2 (OpenCV
// THRESH_TRUNC).
const ThreshTrunc = cv.ThreshTrunc

// NewOps returns the kernel library for an ISA, recording dynamic
// instructions into t (which may be nil).
func NewOps(isa ISA, t *trace.Counter) *Ops { return cv.NewOps(isa, t) }

// NewTrace returns an empty dynamic instruction counter.
func NewTrace() *trace.Counter { return &trace.Counter{} }

// --- Intrinsic emulation layers (for writing custom kernels) ---

// NEONUnit is the emulated NEON execution unit.
type NEONUnit = neon.Unit

// SSE2Unit is the emulated SSE2 execution unit.
type SSE2Unit = sse2.Unit

// NewNEON returns a NEON unit recording into t (may be nil). The unit
// tallies instructions privately; call its Flush before reading t.
func NewNEON(t *trace.Counter) *NEONUnit { return neon.New(t) }

// NewSSE2 returns an SSE2 unit recording into t (may be nil). The unit
// tallies instructions privately; call its Flush before reading t.
func NewSSE2(t *trace.Counter) *SSE2Unit { return sse2.New(t) }

// --- Platforms and timing ---

// Platform is one Table I platform plus its model calibration.
type Platform = platform.Platform

// Platforms returns the paper's ten Table I platforms.
func Platforms() []Platform { return platform.Paper() }

// PlatformByName finds a platform by (sub)string match.
func PlatformByName(name string) (Platform, error) { return platform.ByName(name) }

// Impl selects AUTO (compiler) or HAND (intrinsics) builds.
type Impl = timing.Impl

// Build implementations compared by the paper.
const (
	Auto = timing.Auto
	Hand = timing.Hand
)

// Estimate is a modeled execution of one benchmark run.
type Estimate = timing.Estimate

// BenchNames lists the five paper benchmarks.
func BenchNames() []string { return timing.BenchNames }

// EstimateRun models one benchmark execution on a platform; the AUTO time
// over the HAND time is the paper's speedup.
func EstimateRun(p Platform, bench string, res Resolution, impl Impl) (Estimate, error) {
	return timing.EstimateRun(p, bench, res, impl)
}

// --- Vectorizer reporting ---

// VectorizeTarget selects the code generation ISA for the compiler model.
type VectorizeTarget = vectorizer.Target

// Compiler model targets.
const (
	TargetNEON = vectorizer.TargetNEON
	TargetSSE2 = vectorizer.TargetSSE2
)

// VectorizeDecision is one loop's auto-vectorization outcome.
type VectorizeDecision = vectorizer.Decision

// VectorizeDecisions reports the compiler model's per-pass decisions for a
// benchmark.
func VectorizeDecisions(bench string, target VectorizeTarget) ([]VectorizeDecision, error) {
	return timing.Decisions(bench, target)
}

// SectionVComparison renders the paper's Section V assembly analysis for
// an ISA.
func SectionVComparison(isa ISA) (string, error) { return asmgen.Comparison(isa) }

// --- Experiments ---

// Grid holds AUTO/HAND results for one benchmark over sizes x platforms.
type Grid = harness.Grid

// GridOptions adds journaling (checkpoint and resume) and observability to
// grid runs.
type GridOptions = harness.GridOptions

// RunGrid evaluates a benchmark across platforms and sizes.
func RunGrid(bench string, platforms []Platform, sizes []Resolution) (*Grid, error) {
	return harness.RunGrid(bench, platforms, sizes)
}

// RunGridCtx is RunGrid with deadline/cancellation support and a resumable
// checkpoint journal.
func RunGridCtx(ctx context.Context, bench string, platforms []Platform, sizes []Resolution, opt GridOptions) (*Grid, error) {
	return harness.RunGridCtx(ctx, bench, platforms, sizes, opt)
}

// --- Fault injection ---

// FaultPlan is a deterministic, seedable fault plan: it flips lane bits,
// poisons floats with NaN, perturbs saturation boundaries, or skews
// load/store slices at a configured per-opportunity rate. Attach it with
// Ops.SetFaultInjector.
type FaultPlan = faults.Plan

// FaultConfig configures a FaultPlan (rate, seed, site and kind filters).
type FaultConfig = faults.Config

// FaultKind identifies the corruption applied at a fault site.
type FaultKind = faults.Kind

// FaultKindBitFlip flips one bit of a lane value.
const FaultKindBitFlip = faults.KindBitFlip

// NewFaultPlan builds a deterministic fault plan from a config.
func NewFaultPlan(cfg FaultConfig) *FaultPlan { return faults.NewPlan(cfg) }

// --- Observability ---

// MetricsRegistry collects counters, gauges, histograms, events and spans
// from an instrumented run, and exports them as Prometheus text, a JSONL
// event stream, or Chrome trace_event JSON. Safe for concurrent use; all
// methods are nil-safe, so an unset registry costs nothing.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty registry. Attach it with
// Ops.SetObserver or GridOptions.Obs.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// --- Integrity (silent-data-corruption defense) ---

// AuditConfig configures the redundant-execution auditor: the fraction of
// SIMD kernel calls re-run on the scalar reference path and byte-compared,
// and the deterministic sampler seed.
type AuditConfig = integrity.AuditConfig

// Auditor is the sampled redundant-execution audit engine. Attach it with
// Ops.SetAuditor; a sampled call is re-executed on the scalar reference
// and any byte divergence is counted and repaired in place.
type Auditor = integrity.Auditor

// NewAuditor builds an auditor from cfg.
func NewAuditor(cfg AuditConfig) *Auditor { return integrity.NewAuditor(cfg) }

// --- Result memoization ---

// MemoConfig sizes the result cache: the total byte budget (MaxBytes <= 0
// disables memoization), the shard count, an optional kernel enable-list,
// and the metrics registry the cache reports into.
type MemoConfig = memo.Config

// MemoCache is a sharded, byte-budgeted LRU over kernel results, keyed by
// the content of (kernel, ISA, parameters, input plane). Lookups verify
// the stored plane's checksum before serving it — a corrupt entry is
// evicted and recomputed, never served — and concurrent identical misses
// coalesce into a single execution.
type MemoCache = memo.Cache

// MemoKey identifies one cacheable result by content, not by request
// identity; derive it with MemoKeyFor.
type MemoKey = memo.Key

// NewMemoCache builds a result cache from cfg; it returns nil (a valid,
// always-miss cache) when cfg disables memoization.
func NewMemoCache(cfg MemoConfig) *MemoCache { return memo.New(cfg) }

// MemoKeyFor derives the content key for one kernel execution: the kernel
// and ISA names (the ISA is part of the key because hand-SIMD rounding may
// legitimately differ from scalar), the fixed-parameter signature, and a
// fingerprint of the input plane.
func MemoKeyFor(kernel, isa, params string, src *Mat) MemoKey {
	return memo.KeyFor(kernel, isa, params, src)
}
