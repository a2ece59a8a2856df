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
// This package is the public facade: it re-exports the image substrate, the
// OpenCV-like kernel library, the intrinsic emulation layers, the platform
// catalogue, the timing model and the experiment harness used by the
// examples and the benchmark suite.
package simdstudy

import (
	"context"
	"io"

	"simdstudy/internal/asmgen"
	"simdstudy/internal/checkpoint"
	"simdstudy/internal/cv"
	"simdstudy/internal/faults"
	"simdstudy/internal/harness"
	"simdstudy/internal/image"
	"simdstudy/internal/integrity"
	"simdstudy/internal/memo"
	"simdstudy/internal/neon"
	"simdstudy/internal/obs"
	"simdstudy/internal/obs/tsdb"
	"simdstudy/internal/platform"
	"simdstudy/internal/resilience"
	"simdstudy/internal/serve"
	"simdstudy/internal/sse2"
	"simdstudy/internal/super"
	"simdstudy/internal/timing"
	"simdstudy/internal/trace"
	"simdstudy/internal/vec"
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
	F32 = image.F32
)

// The paper's four camera resolutions.
var (
	Res03MP = image.Res03MP
	Res1MP  = image.Res1MP
	Res5MP  = image.Res5MP
	Res8MP  = image.Res8MP
)

// Resolutions lists the paper's image sizes smallest first.
func Resolutions() []Resolution { return image.Resolutions }

// NewMat allocates a zeroed image, panicking on invalid arguments.
func NewMat(width, height int, kind image.Type) *Mat { return image.NewMat(width, height, kind) }

// TryNewMat allocates a zeroed image, returning an error for invalid
// dimensions or element types; use it for externally-sourced sizes.
func TryNewMat(width, height int, kind image.Type) (*Mat, error) {
	return image.TryNewMat(width, height, kind)
}

// ParseResolution parses a paper size name or a "WxH" string.
func ParseResolution(s string) (Resolution, error) { return image.ParseResolution(s) }

// Synthetic generates the deterministic synthetic photograph used in place
// of the paper's camera images.
func Synthetic(res Resolution, seed uint64) *Mat { return image.Synthetic(res, seed) }

// SyntheticF32 generates a float image for the conversion benchmark.
func SyntheticF32(res Resolution, seed uint64) *Mat { return image.SyntheticF32(res, seed) }

// Burst generates the paper's 5-image workload for one resolution.
func Burst(res Resolution, n int) []*Mat { return image.Burst(res, n) }

// WritePGM / ReadPGM encode and decode the uncompressed image format used
// by the tooling.
var (
	WritePGM = image.WritePGM
	ReadPGM  = image.ReadPGM
)

// RGBImage is a 3-channel interleaved color image, the input to the
// RGB-to-gray kernel (which exercises NEON's structured vld3 loads).
type RGBImage = image.RGB

// NewRGB allocates a zeroed color image, panicking on invalid dimensions.
func NewRGB(width, height int) *RGBImage { return image.NewRGB(width, height) }

// TryNewRGB allocates a zeroed color image, returning an error for invalid
// dimensions.
func TryNewRGB(width, height int) (*RGBImage, error) { return image.TryNewRGB(width, height) }

// SyntheticRGB generates a deterministic synthetic color image.
func SyntheticRGB(res Resolution, seed uint64) *RGBImage { return image.SyntheticRGB(res, seed) }

// WritePPM / ReadPPM encode and decode interleaved color images.
var (
	WritePPM = image.WritePPM
	ReadPPM  = image.ReadPPM
)

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

// ThreshType selects the thresholding rule (OpenCV THRESH_*).
type ThreshType = cv.ThreshType

// Threshold types; the paper's benchmark 2 uses ThreshTrunc.
const (
	ThreshBinary    = cv.ThreshBinary
	ThreshBinaryInv = cv.ThreshBinaryInv
	ThreshTrunc     = cv.ThreshTrunc
	ThreshToZero    = cv.ThreshToZero
	ThreshToZeroInv = cv.ThreshToZeroInv
)

// ParallelConfig sizes intra-kernel row-banded parallelism; attach it with
// Ops.SetParallel, ServeConfig.Parallel or CampaignConfig.Parallel. The
// zero value runs serially; Workers > 1 splits each kernel pass into that
// many row (or element-block) bands executed on a shared worker pool, with
// bit-identical outputs, merged instruction counts and fault-injection
// schedules for every worker count.
type ParallelConfig = cv.ParallelConfig

// FuseConfig enables cache-blocked stage fusion for multi-stage kernels
// (Canny, DetectEdges); attach it with Ops.SetFuse, ServeConfig.Fuse or
// CampaignConfig.Fuse. Fused sweeps stream every stage through strip-sized
// rolling windows instead of materializing full intermediate planes, with
// byte-identical outputs and count-identical instruction traces. StripRows
// forces a strip height; zero sizes strips from Caches (or a 256 KiB
// budget when Caches is empty).
type FuseConfig = cv.FuseConfig

// NewOps returns the kernel library for an ISA, recording dynamic
// instructions into t (which may be nil).
func NewOps(isa ISA, t *trace.Counter) *Ops { return cv.NewOps(isa, t) }

// NewTrace returns an empty dynamic instruction counter.
func NewTrace() *trace.Counter { return &trace.Counter{} }

// Trace is a dynamic instruction counter.
type Trace = trace.Counter

// --- Intrinsic emulation layers (for writing custom kernels) ---

// V128 is a 128-bit SIMD register value (XMM / NEON Q): a struct of two
// little-endian words, Lo holding bytes 0-7 and Hi bytes 8-15, not a byte
// array, so it is passed in machine registers. Build and read one through
// the load and dup intrinsics or its lane methods (SetU8, U16, ToU8x16,
// ...); it cannot be indexed or converted from [16]byte.
type V128 = vec.V128

// V64 is a 64-bit SIMD register value (MMX / NEON D): a struct of one
// little-endian word W, read and written through its lane accessors.
type V64 = vec.V64

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

// AllPlatforms additionally includes the extrapolated Cortex-A15.
func AllPlatforms() []Platform { return platform.All() }

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

// EstimateRun models one benchmark execution on a platform.
func EstimateRun(p Platform, bench string, res Resolution, impl Impl) (Estimate, error) {
	return timing.EstimateRun(p, bench, res, impl)
}

// Speedup returns the HAND-over-AUTO factor (the paper's figures).
func Speedup(p Platform, bench string, res Resolution) (float64, error) {
	return timing.Speedup(p, bench, res)
}

// EnergyEstimate is a modeled energy cost (the paper's future-work
// extension: performance per watt).
type EnergyEstimate = timing.EnergyEstimate

// EstimateEnergy models the energy of one benchmark run.
func EstimateEnergy(p Platform, bench string, res Resolution, impl Impl) (EnergyEstimate, error) {
	return timing.EstimateEnergy(p, bench, res, impl)
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

// --- Fault injection and graceful degradation ---

// FaultInjector corrupts values flowing through the emulated SIMD units;
// implementations decide when and how. The built-in implementation is
// FaultPlan.
type FaultInjector = faults.Injector

// FaultPlan is a deterministic, seedable fault plan: it flips lane bits,
// poisons floats with NaN, perturbs saturation boundaries, or skews
// load/store slices at a configured per-opportunity rate.
type FaultPlan = faults.Plan

// FaultConfig configures a FaultPlan (rate, seed, site and kind filters).
type FaultConfig = faults.Config

// FaultSite identifies where in an intrinsic a fault strikes.
type FaultSite = faults.Site

// FaultKind identifies the corruption applied at a fault site.
type FaultKind = faults.Kind

// Fault sites and kinds.
const (
	FaultSiteLoad    = faults.SiteLoad
	FaultSiteStore   = faults.SiteStore
	FaultSiteALU     = faults.SiteALU
	FaultSiteConvert = faults.SiteConvert
	FaultKindBitFlip = faults.KindBitFlip
	FaultKindNaN     = faults.KindNaN
	FaultKindSat     = faults.KindSatBoundary
	FaultKindIdxSkew = faults.KindIndexSkew
)

// NewFaultPlan builds a deterministic fault plan from a config.
func NewFaultPlan(cfg FaultConfig) *FaultPlan { return faults.NewPlan(cfg) }

// KernelFault records one guarded-kernel fault event (detection, retry
// recovery, scalar fallback, or kill-switch).
type KernelFault = cv.KernelFault

// FaultAction classifies a KernelFault.
type FaultAction = cv.FaultAction

// Guarded-kernel fault actions.
const (
	FaultDetected       = cv.ActionDetected
	FaultRetryRecovered = cv.ActionRetryRecovered
	FaultFallback       = cv.ActionFallback
	FaultKillSwitch     = cv.ActionKillSwitch
)

// GuardPolicy tunes the guarded-execution mode of Ops (spot-check rows,
// retry budget, kill-switch threshold).
type GuardPolicy = cv.GuardPolicy

// DefaultGuardPolicy returns the policy used when none is set.
func DefaultGuardPolicy() GuardPolicy { return cv.DefaultGuardPolicy() }

// --- Experiments ---

// Grid holds AUTO/HAND results for one benchmark over sizes x platforms.
type Grid = harness.Grid

// GridOptions adds per-cell retry/backoff behavior to grid runs.
type GridOptions = harness.GridOptions

// RunGrid evaluates a benchmark across platforms and sizes.
func RunGrid(bench string, platforms []Platform, sizes []Resolution) (*Grid, error) {
	return harness.RunGrid(bench, platforms, sizes)
}

// RunGridCtx is RunGrid with deadline/cancellation support and per-cell
// retry with backoff.
func RunGridCtx(ctx context.Context, bench string, platforms []Platform, sizes []Resolution, opt GridOptions) (*Grid, error) {
	return harness.RunGridCtx(ctx, bench, platforms, sizes, opt)
}

// VerifyBenchmark executes the real emulated kernels over the 5-image
// burst, cross-checking hand-SIMD output against scalar output.
func VerifyBenchmark(bench string, res Resolution) (int, error) {
	return harness.Verify(bench, res)
}

// VerifyBenchmarkCtx is VerifyBenchmark with deadline/cancellation support.
func VerifyBenchmarkCtx(ctx context.Context, bench string, res Resolution) (int, error) {
	return harness.VerifyCtx(ctx, bench, res)
}

// CampaignConfig configures a fault-injection campaign.
type CampaignConfig = harness.CampaignConfig

// FaultReport summarizes a fault campaign: injected vs detected vs masked
// per ISA.
type FaultReport = harness.FaultReport

// ISAFaultReport is the per-ISA row of a FaultReport.
type ISAFaultReport = harness.ISAFaultReport

// RunFaultCampaign runs a benchmark's guarded kernels under deterministic
// fault injection and reports how the degradation ladder responded.
func RunFaultCampaign(ctx context.Context, bench string, res Resolution, cfg CampaignConfig) (*FaultReport, error) {
	return harness.RunFaultCampaign(ctx, bench, res, cfg)
}

// RenderTable1 prints the Table I platform catalogue.
func RenderTable1(w io.Writer, platforms []Platform) { harness.RenderTable1(w, platforms) }

// --- Observability ---

// MetricsRegistry collects counters, gauges, histograms, events and spans
// from an instrumented run, and exports them as Prometheus text, a JSONL
// event stream, or Chrome trace_event JSON. Safe for concurrent use; all
// methods are nil-safe, so an unset registry costs nothing.
type MetricsRegistry = obs.Registry

// Span is a hierarchical interval of observed work (grid cell, kernel,
// guard action) carrying wall-clock time, modeled cycles and a dynamic
// instruction delta.
type Span = obs.Span

// SpanRecord is one completed span as stored in a MetricsRegistry.
type SpanRecord = obs.SpanRecord

// MetricsSnapshot is a point-in-time map of series name to value.
type MetricsSnapshot = obs.Snapshot

// MetricLabel is one name=value dimension of a metric series.
type MetricLabel = obs.Label

// NewMetricsRegistry returns an empty registry. Attach it with
// Ops.SetObserver, GridOptions.Obs or CampaignConfig.Obs.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// Label constructs a metric label.
func Label(key, value string) MetricLabel { return obs.L(key, value) }

// MetricExemplar ties one histogram observation to the trace that produced
// it, exported in the OpenMetrics rendering
// (MetricsRegistry.WriteOpenMetrics).
type MetricExemplar = obs.Exemplar

// WithTrace binds a request trace ID to a context; the Ctx kernel entry
// points pick it up and stamp their spans and latency-histogram exemplars
// with it. An empty ID returns ctx unchanged.
func WithTrace(ctx context.Context, id string) context.Context {
	return obs.WithTrace(ctx, id)
}

// TraceID returns the trace ID bound with WithTrace, or "". Nil-safe.
func TraceID(ctx context.Context) string { return obs.TraceID(ctx) }

// TimeSeriesStore is an in-process ring of registry samples serving
// windowed rollups: per-series rates and histogram-derived latency
// quantiles. See NewTimeSeriesStore.
type TimeSeriesStore = tsdb.Store

// TimeSeriesConfig sizes a TimeSeriesStore (sampling cadence, ring
// capacity, optional Go-runtime health collection).
type TimeSeriesConfig = tsdb.Config

// TimeSeriesRollup is the windowed view between two samples: rates,
// deltas, quantiles and the newest gauge values.
type TimeSeriesRollup = tsdb.Rollup

// NewTimeSeriesStore builds a time-series store over a registry. Call
// Start for background sampling or Sample to drive it explicitly.
func NewTimeSeriesStore(reg *MetricsRegistry, cfg TimeSeriesConfig) *TimeSeriesStore {
	return tsdb.New(reg, cfg)
}

// SectionVComparison renders the paper's Section V assembly analysis for
// an ISA.
func SectionVComparison(isa ISA) (string, error) { return asmgen.Comparison(isa) }

// --- Resilience ---

// BreakerState is a circuit breaker's position: BreakerClosed,
// BreakerOpen, BreakerHalfOpen or BreakerStuckOpen.
type BreakerState = resilience.State

// Breaker states.
const (
	BreakerClosed    = resilience.StateClosed
	BreakerOpen      = resilience.StateOpen
	BreakerHalfOpen  = resilience.StateHalfOpen
	BreakerStuckOpen = resilience.StateStuckOpen
)

// BreakerConfig tunes the per-(kernel, ISA) circuit breakers: failure-rate
// window, cooldown, half-open probe budget, and the give-up threshold that
// latches one pair stuck-open (recorded as FaultKillSwitch).
type BreakerConfig = resilience.BreakerConfig

// BreakerSet is a family of per-(kernel, ISA) circuit breakers. Attach it
// with Ops.SetBreakers so guard verdicts drive it and open breakers demote
// calls to the scalar path.
type BreakerSet = resilience.BreakerSet

// Backoff is an exponential backoff schedule with deterministic jitter,
// used by GuardPolicy.Backoff to space SIMD retries.
type Backoff = resilience.Backoff

// DeadlineError is the typed cancellation error returned by the Ctx entry
// points, carrying partial-progress accounting (rows, trips, cells or
// images completed).
type DeadlineError = resilience.DeadlineError

// NewBreakerSet builds an empty breaker family reporting into reg (which
// may be nil).
func NewBreakerSet(cfg BreakerConfig, reg *MetricsRegistry) *BreakerSet {
	return resilience.NewBreakerSet(cfg, reg)
}

// --- Crash safety and supervision ---

// CheckpointJournal is a versioned, checksummed, atomically-replaced record
// journal (see internal/checkpoint). The harness entry points write one per
// run when GridOptions.CheckpointPath / CampaignConfig.CheckpointPath is
// set, and resume from it after a crash; the serving front-end persists
// quarantine decisions in the same format.
type CheckpointJournal = checkpoint.Journal

// CheckpointRecord is one journaled entry: a sequence number, an opaque
// JSON payload, and a CRC over both.
type CheckpointRecord = checkpoint.Record

// CorruptJournalError reports a journal that failed decoding — truncated,
// bit-flipped, reordered, or otherwise not bit-exact. Resume paths treat it
// as "no journal" (cold start with a warning), never as data.
type CorruptJournalError = checkpoint.CorruptJournalError

// CheckpointMismatchError reports a structurally valid journal written by a
// different kind of run or a different configuration fingerprint. Resume
// refuses it outright: silently recomputing under new parameters while
// keeping old cells would corrupt results.
type CheckpointMismatchError = checkpoint.MismatchError

// CreateCheckpoint creates (truncating) a journal for a run kind and
// configuration fingerprint.
func CreateCheckpoint(path, kind, fingerprint string) (*CheckpointJournal, error) {
	return checkpoint.Create(path, kind, fingerprint)
}

// OpenCheckpoint opens an existing journal, verifying its checksums and
// that it was written for the same run kind and configuration fingerprint.
func OpenCheckpoint(path, kind, fingerprint string) (*CheckpointJournal, error) {
	return checkpoint.Open(path, kind, fingerprint)
}

// OpenOrCreateCheckpoint implements the standard resume policy: open a
// matching journal (resumed=true), create a fresh one when the file is
// missing or corrupt (warn non-nil in the corrupt case), and fail with a
// *CheckpointMismatchError when the journal belongs to a different run.
func OpenOrCreateCheckpoint(path, kind, fingerprint string) (j *CheckpointJournal, resumed bool, warn, err error) {
	return checkpoint.OpenOrCreate(path, kind, fingerprint)
}

// StallError is the typed error returned when a stall watchdog declares a
// kernel band wedged: it names the kernel, ISA and band, the last heartbeat
// seen, and the deadline that expired.
type StallError = super.StallError

// QuarantinePolicy tunes panic quarantine: how many panics a (kernel, ISA)
// pair may suffer before it is demoted to the scalar, serial path
// permanently (its breaker latches stuck-open).
type QuarantinePolicy = super.QuarantinePolicy

// QuarantineRecord is one panic-quarantine decision as the supervisor
// persists it to the quarantine journal. The live view of every
// quarantine, whatever its reason, is BreakerSet.Quarantines.
type QuarantineRecord = super.QuarantineRecord

// Supervisor counts kernel panics and names repeat offenders for
// quarantine. Attach it with Ops.SetSupervisor next to Ops.SetBreakers: the
// pair's breaker holds the quarantine. The serving front-end wires both.
type Supervisor = super.Supervisor

// Watchdog monitors per-band heartbeats and cancels kernel passes whose
// bands go silent past the deadline. Attach it with Ops.SetWatchdog.
type Watchdog = super.Watchdog

// WatchdogConfig tunes a Watchdog (deadline, poll interval).
type WatchdogConfig = super.WatchdogConfig

// NewSupervisor builds a panic supervisor reporting into reg (may be nil).
func NewSupervisor(policy QuarantinePolicy, reg *MetricsRegistry) *Supervisor {
	return super.NewSupervisor(policy, reg)
}

// NewWatchdog builds a stall watchdog reporting into reg (may be nil).
// Call Stop when done to release its monitor goroutine.
func NewWatchdog(cfg WatchdogConfig, reg *MetricsRegistry) *Watchdog {
	return super.NewWatchdog(cfg, reg)
}

// --- Integrity (silent-data-corruption defense) ---

// AuditConfig configures the redundant-execution auditor: the fraction of
// SIMD kernel calls re-run on the scalar reference path and byte-compared,
// and the deterministic sampler seed.
type AuditConfig = integrity.AuditConfig

// Auditor is the sampled redundant-execution audit engine. Attach it with
// Ops.SetAuditor (or ServeConfig.AuditRate for the serving front-end); a
// sampled call is re-executed on the scalar reference and any byte
// divergence becomes a CorruptionError, a corruption_detected_total
// increment, and a scoreboard verdict.
type Auditor = integrity.Auditor

// CorruptionError describes one silent corruption caught by an audit: the
// kernel and ISA, the audited row window, and the first diverging element.
type CorruptionError = integrity.CorruptionError

// AuditRegion is the row window of an audit re-execution.
type AuditRegion = integrity.Region

// AuditResume is an Auditor's checkpointable sampler position, used by the
// campaign journal so a resumed run replays the identical audit schedule.
type AuditResume = integrity.AuditResume

// IntegrityScoreboard tracks a decayed mismatch rate per (kernel, ISA)
// pair; a pair whose rate crosses the configured threshold trips once, and
// Auditor.Observe reports the trip to the kernel call frame, which latches
// the pair's breaker stuck-open for corruption (when the Ops has a breaker
// set), demoting its traffic to scalar.
type IntegrityScoreboard = integrity.Scoreboard

// IntegrityScoreboardConfig tunes the scoreboard's decay, trip threshold
// and minimum sample count; the zero value uses the documented defaults.
type IntegrityScoreboardConfig = integrity.ScoreboardConfig

// IntegrityPairScore is one (kernel, ISA) row of a scoreboard snapshot.
type IntegrityPairScore = integrity.PairScore

// PlaneChecksum is a blockwise FNV-1a fingerprint of an image plane; the
// plane pool's scrubber uses them to catch corruption of parked planes, and
// the result cache to key and verify its entries.
type PlaneChecksum = integrity.PlaneSum

// ChecksumError reports a plane whose bytes no longer match their
// fingerprint, naming the damaged block and its element range.
type ChecksumError = integrity.ChecksumError

// NewAuditor builds an auditor from cfg.
func NewAuditor(cfg AuditConfig) *Auditor { return integrity.NewAuditor(cfg) }

// NewIntegrityScoreboard builds a corruption scoreboard reporting into reg
// (which may be nil).
func NewIntegrityScoreboard(cfg IntegrityScoreboardConfig, reg *MetricsRegistry) *IntegrityScoreboard {
	return integrity.NewScoreboard(cfg, reg)
}

// ChecksumMat fingerprints an image in blocks of blockRows rows (0 uses
// the default block size); verify later with PlaneChecksum.VerifyMat.
func ChecksumMat(m *Mat, blockRows int) PlaneChecksum { return integrity.SumMat(m, blockRows) }

// --- Result memoization ---

// MemoConfig sizes the result cache: the total byte budget (MaxBytes <= 0
// disables memoization), the shard count, an optional kernel enable-list,
// and the metrics registry the cache reports into. Attach it with ServeConfig.Memo, or build a standalone cache with
// NewMemoCache for CampaignConfig.Memo.
type MemoConfig = memo.Config

// MemoCache is a sharded, byte-budgeted LRU over kernel results, keyed by
// the content of (kernel, ISA, parameters, input plane). Lookups verify
// the stored plane's checksum before serving it — a corrupt entry is
// evicted and recomputed, never served — and concurrent identical misses
// coalesce into a single execution.
type MemoCache = memo.Cache

// MemoStats is a point-in-time cache summary: occupancy against budget
// and the lifetime hit/miss/coalesce/eviction tallies.
type MemoStats = memo.Stats

// MemoKey identifies one cacheable result by content, not by request
// identity; derive it with MemoKeyFor.
type MemoKey = memo.Key

// MemoOutcome classifies one MemoCache.Do call.
type MemoOutcome = memo.Outcome

// Memoization outcomes.
const (
	MemoBypass    = memo.Bypass
	MemoHit       = memo.Hit
	MemoMiss      = memo.Miss
	MemoCoalesced = memo.Coalesced
)

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

// MemoBenchResult compares verified-cache-hit latency against direct
// kernel execution for one benchmark and size.
type MemoBenchResult = harness.MemoBenchResult

// RunMemoBench measures a benchmark's hit-versus-compute latency on the
// NEON path (see cmd/simdbench -memo).
func RunMemoBench(bench string, res Resolution) (MemoBenchResult, error) {
	return harness.RunMemoBench(bench, res)
}

// --- Serving ---

// ServeConfig tunes the HTTP serving front-end: admission bounds,
// deadlines, guard policy, breaker policy, stall deadline and quarantine
// policy, and result memoization (ServeConfig.Memo).
type ServeConfig = serve.Config

// Server is the hardened HTTP front-end over the kernel pipeline; see
// cmd/simdserved for the standalone binary.
type Server = serve.Server

// NewServer builds a serving front-end from cfg.
func NewServer(cfg ServeConfig) *Server { return serve.NewServer(cfg) }
