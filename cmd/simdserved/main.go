// Command simdserved is the hardened HTTP front-end over the guarded
// kernel pipeline: bounded admission with load shedding, per-request
// deadlines, per-(kernel, ISA) circuit breakers that demote flaky SIMD
// units to scalar and re-arm them via half-open probes, and the standard
// operational endpoints (/healthz, /readyz, /metrics).
//
// Usage:
//
//	simdserved -addr :8080
//	simdserved -addr :8080 -max-concurrent 2 -queue 4 -deadline-ms 500
//	simdserved -fault-rate 1e-4 -fault-isa neon   # soak: sabotage one ISA
//
// Endpoints:
//
//	GET /process?kernel=gaussian&width=640&height=480&isa=neon&deadline_ms=100
//	GET /healthz   liveness
//	GET /readyz    readiness + per-(kernel, ISA) breaker states
//	GET /livez     supervision view: in-flight requests, stalls, quarantines
//	GET /integrity corruption-defense view: audit sampler rates and tallies,
//	               per-(kernel, ISA) corruption scores, quarantined pairs
//	GET /memo      result-cache view: occupancy, hit/miss/coalesce tallies,
//	               per-(kernel, ISA) entry breakdown, in-flight coalescing
//	GET /metrics   Prometheus text exposition (?format=openmetrics adds
//	               trace-ID exemplars on histogram buckets and # EOF)
//	GET /metrics/stream   live telemetry frames over Server-Sent Events
//	                      (per-kernel QPS and latency quantiles, SLO burn
//	                      rates, breaker and quarantine state) — the feed
//	                      cmd/simdtop renders
//	GET /debug/pprof/...  runtime profiles; CPU samples carry
//	                      (kernel, isa, band) labels from kernel dispatch
//
// Supervision: -stall-deadline arms a watchdog that cancels a request whose
// kernel band goes silent; -quarantine-after N demotes a (kernel, ISA) pair
// whose SIMD path panics N times to scalar permanently; -quarantine-journal
// persists those demotions so a restarted process does not re-probe them.
//
// Integrity: -audit-rate R re-runs a deterministic sample of SIMD dispatches
// on the scalar reference path and byte-compares the outputs. The sampling
// rate adapts to load — it is scaled by admission-queue headroom, so a
// filling queue sheds audits before it delays requests, down to zero at a
// full queue — and a pair whose decayed mismatch rate crosses the scoreboard
// threshold is quarantined to scalar via its breaker. -fault-rate plus
// -audit-rate is the self-soak: injected corruption should surface on
// /integrity and in corruption_detected_total.
//
// Memoization: -memo-bytes B caches response checksums keyed by the request
// (kernel, ISA, parameters, width, height, seed), serving repeated identical
// requests from the stored, verified checksum without synthesizing or
// computing anything (X-Memo: hit) and coalescing concurrent identical
// misses into one execution (X-Memo: coalesced).
// Quarantining a (kernel, ISA) pair drops its cached entries, so a cache
// never replays results from a unit later judged corrupt. -memo-kernels
// restricts memoization to a comma-separated kernel subset.
//
// SIGINT/SIGTERM starts a graceful drain: /readyz flips to 503, in-flight
// requests finish, then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"simdstudy/internal/cv"
	"simdstudy/internal/faults"
	"simdstudy/internal/memo"
	"simdstudy/internal/resilience"
	"simdstudy/internal/serve"
	"simdstudy/internal/super"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxConcurrent := flag.Int("max-concurrent", 0, "kernel dispatches running at once (0 = auto: 4, or GOMAXPROCS/workers with -workers > 1)")
	queue := flag.Int("queue", 16, "requests allowed to wait for a slot before shedding")
	workers := flag.Int("workers", 1, "row-band workers per kernel dispatch (1 = serial, -1 = one per core)")
	deadlineMS := flag.Int("deadline-ms", 2000, "default per-request deadline")
	maxDeadlineMS := flag.Int("max-deadline-ms", 10000, "ceiling on client-requested deadlines")
	maxPixels := flag.Int("max-pixels", 1<<22, "ceiling on width*height per request")
	faultRate := flag.Float64("fault-rate", 0, "per-opportunity fault probability (0 = no injection)")
	faultISA := flag.String("fault-isa", "", "restrict fault injection to one ISA: neon or sse2 (empty = all SIMD)")
	faultSeed := flag.Uint64("fault-seed", 7, "deterministic seed for the fault plan")
	breakerWindow := flag.Int("breaker-window", 16, "breaker sliding-window size")
	breakerMinSamples := flag.Int("breaker-min-samples", 4, "verdicts required before a breaker may trip")
	breakerRate := flag.Float64("breaker-rate", 0.5, "failure rate that opens a breaker")
	breakerOpenFor := flag.Duration("breaker-open-for", 5*time.Second, "cooldown before an open breaker half-opens")
	breakerGiveUp := flag.Int("breaker-give-up", 0, "failed re-arm cycles before a breaker latches stuck-open (0 = never)")
	stallDeadline := flag.Duration("stall-deadline", 0, "cancel a request whose kernel band is silent this long (0 = no watchdog)")
	quarantineAfter := flag.Int("quarantine-after", 0, "panics before a (kernel, ISA) pair is demoted to scalar permanently (0 = default 3)")
	quarantineJournal := flag.String("quarantine-journal", "", "persist quarantine decisions here and replay them at startup")
	auditRate := flag.Float64("audit-rate", 0, "fraction of SIMD dispatches re-run on the scalar reference and byte-compared for silent corruption (0 = off); the effective rate scales down with admission-queue fill — a full queue suspends auditing — and persistent mismatches quarantine the (kernel, ISA) pair to scalar")
	auditSeed := flag.Uint64("audit-seed", 1, "deterministic seed for the audit sampler")
	sampleInterval := flag.Duration("sample-interval", time.Second, "time-series sampler cadence for /metrics/stream rollups (0 = sample only per stream frame)")
	telemetryRing := flag.Int("telemetry-ring", 300, "samples held in the time-series ring")
	sloLatencyMS := flag.Int("slo-latency-ms", 250, "latency objective per request, queue wait included")
	sloLatencyTarget := flag.Float64("slo-latency-target", 0.99, "fraction of requests that must meet the latency objective")
	sloAvailTarget := flag.Float64("slo-availability-target", 0.999, "fraction of requests that must not be shed or fail")
	sloDisabled := flag.Bool("slo-disabled", false, "turn off SLO burn-rate tracking")
	memoBytes := flag.Int64("memo-bytes", 0, "result-cache byte budget (0 = memoization off)")
	memoKernels := flag.String("memo-kernels", "", "comma-separated kernels to memoize (empty = all, with -memo-bytes > 0)")
	fuseOn := flag.Bool("fuse", false, "run multi-stage kernels (canny, edges) as cache-blocked fused sweeps")
	stripRows := flag.Int("strip-rows", 0, "strip height for -fuse (0 = automatic, sized to a 256 KiB window budget)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful shutdown budget after SIGTERM")
	flag.Parse()

	if *faultISA != "" && *faultISA != "neon" && *faultISA != "sse2" {
		fmt.Fprintf(os.Stderr, "simdserved: -fault-isa %q: want neon or sse2\n", *faultISA)
		os.Exit(2)
	}

	memoCfg := memo.Config{MaxBytes: *memoBytes}
	if *memoKernels != "" {
		memoCfg.Kernels = strings.Split(*memoKernels, ",")
	}

	s := serve.NewServer(serve.Config{
		Memo:            memoCfg,
		MaxConcurrent:   *maxConcurrent,
		QueueDepth:      *queue,
		DefaultDeadline: time.Duration(*deadlineMS) * time.Millisecond,
		MaxDeadline:     time.Duration(*maxDeadlineMS) * time.Millisecond,
		MaxPixels:       *maxPixels,
		FaultISA:        *faultISA,
		Parallel:        cv.ParallelConfig{Workers: *workers},
		Fuse:            cv.FuseConfig{Enabled: *fuseOn, StripRows: *stripRows},
		Breaker: resilience.BreakerConfig{
			Window:      *breakerWindow,
			MinSamples:  *breakerMinSamples,
			FailureRate: *breakerRate,
			OpenFor:     *breakerOpenFor,
			GiveUpAfter: *breakerGiveUp,
		},
		StallDeadline:     *stallDeadline,
		Quarantine:        super.QuarantinePolicy{MaxPanics: *quarantineAfter},
		QuarantineJournal: *quarantineJournal,
		AuditRate:         *auditRate,
		AuditSeed:         *auditSeed,
		SampleInterval:    *sampleInterval,
		TelemetryRing:     *telemetryRing,
		SLO: serve.SLOConfig{
			Disabled:           *sloDisabled,
			LatencyObjective:   time.Duration(*sloLatencyMS) * time.Millisecond,
			LatencyTarget:      *sloLatencyTarget,
			AvailabilityTarget: *sloAvailTarget,
		},
	})
	defer s.Close()
	if *faultRate > 0 {
		plan := faults.NewPlan(faults.Config{Rate: *faultRate, Seed: *faultSeed})
		s.SetFaultInjector(serve.LockInjector(plan))
		fmt.Fprintf(os.Stderr, "simdserved: injecting faults at rate %g (isa %q, seed %d)\n",
			*faultRate, *faultISA, *faultSeed)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "simdserved: listening on %s (kernels: %s)\n",
		*addr, strings.Join(serve.KernelNames(), ", "))

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "simdserved: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "simdserved: draining")
	s.StartDrain()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "simdserved: drain: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "simdserved: drained cleanly")
}
