package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	httppprof "net/http/pprof"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"simdstudy/internal/checkpoint"
	"simdstudy/internal/cv"
	"simdstudy/internal/faults"
	"simdstudy/internal/image"
	"simdstudy/internal/integrity"
	"simdstudy/internal/memo"
	"simdstudy/internal/obs"
	"simdstudy/internal/obs/tsdb"
	"simdstudy/internal/par"
	"simdstudy/internal/resilience"
	"simdstudy/internal/super"
	"simdstudy/internal/vec"
)

// Config tunes a Server. The zero value selects the defaults noted per
// field.
type Config struct {
	// MaxConcurrent is how many kernel dispatches run at once. Default 4.
	MaxConcurrent int
	// QueueDepth is how many requests may wait for a slot before the
	// server sheds load with 429. Default 16.
	QueueDepth int
	// DefaultDeadline applies when a request carries no deadline_ms.
	// Default 2s.
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines. Default 10s.
	MaxDeadline time.Duration
	// MaxPixels caps width*height per request. Default 1<<22 (4 Mpx).
	MaxPixels int
	// Guard is the guarded-dispatch policy shared by every worker Ops.
	// The zero value takes cv.DefaultGuardPolicy with the kill-switch
	// disabled — terminal demotion belongs to the breaker's GiveUpAfter.
	Guard cv.GuardPolicy
	// Breaker configures the per-(kernel, ISA) circuit breakers.
	Breaker resilience.BreakerConfig
	// FaultISA restricts the attached fault injector to one ISA name
	// ("neon", "sse2"); empty applies it to every SIMD ISA.
	FaultISA string
	// Parallel configures intra-kernel row banding for every worker Ops
	// (see cv.ParallelConfig). The zero value runs kernels serially. With
	// Workers > 1 and MaxConcurrent unset, the admission limit defaults to
	// GOMAXPROCS/Workers so request-level and band-level concurrency
	// compose without oversubscribing cores (the shared band pool bounds
	// true parallelism regardless; this only keeps queue sizing honest).
	// Each request's input synthesis runs on the same band count.
	Parallel cv.ParallelConfig
	// Fuse, when enabled, runs multi-stage kernels (canny, edges) as
	// cache-blocked fused sweeps: intermediates live in rolling strip
	// windows sized to Fuse.Caches (or StripRows) instead of full planes.
	// Responses are byte-identical to staged execution; the server
	// additionally exports fused_plane_bytes_saved_total.
	Fuse cv.FuseConfig
	// Registry receives all metrics, spans, and events; nil allocates a
	// private one.
	Registry *obs.Registry
	// StallDeadline, when positive, runs every worker Ops under a stall
	// watchdog: a kernel band silent for longer than this cancels its
	// siblings and the request fails with a typed stall response instead of
	// holding its admission slot until the client deadline.
	StallDeadline time.Duration
	// Quarantine tunes the panic supervisor shared by every worker Ops: a
	// (kernel, ISA) pair whose SIMD path panics MaxPanics times is demoted
	// to the scalar, serial path permanently (its breaker latches
	// stuck-open). The zero value selects the supervisor defaults.
	Quarantine super.QuarantinePolicy
	// QuarantineJournal, when non-empty, persists quarantine decisions to
	// this checkpoint journal and replays them at startup, so a restarted
	// simdserved does not re-probe a known-poisonous (kernel, ISA) pair. A
	// corrupt journal is discarded (cold start, warning event); a journal
	// of the wrong kind disables persistence with a
	// quarantine.journal_error event rather than failing startup.
	QuarantineJournal string
	// SLO declares the latency and availability objectives the server
	// tracks burn rates against (exported as slo_burn_rate gauges and on
	// /metrics/stream). The zero value enables tracking with defaults;
	// set SLO.Disabled to turn it off.
	SLO SLOConfig
	// SampleInterval, when positive, runs a background time-series sampler
	// at this cadence so windowed rollups (per-kernel QPS, p99) have
	// history even between /metrics/stream consumers. Zero samples only
	// when a stream frame is built — no background goroutine, which keeps
	// short-lived embedded servers (tests) free of tickers.
	SampleInterval time.Duration
	// TelemetryRing is how many samples the time-series ring holds.
	// Default 300 (five minutes at a 1s cadence).
	TelemetryRing int
	// AuditRate, when positive, re-runs this fraction of SIMD kernel
	// dispatches on the scalar reference path and byte-compares the outputs
	// (internal/integrity): a mismatch is silent corruption — it is counted,
	// repaired from the reference, and fed to a corruption scoreboard whose
	// threshold crossing latches the (kernel, ISA) breaker stuck-open, so a
	// corrupting unit transparently demotes to scalar. The effective rate is
	// scaled by admission-queue headroom: as the wait queue fills, audits
	// shed first (down to zero at a full queue) so redundant recomputation
	// never spends the latency SLO budget. Auditing also installs the pool
	// scrubber that re-verifies parked scratch planes at reuse.
	AuditRate float64
	// AuditSeed drives the deterministic audit sampler; zero means 1.
	AuditSeed uint64
	// Memo configures result memoization (internal/memo): a request whose
	// (kernel, ISA, parameter and fuse signature, width, height, seed)
	// tuple matches a cached response is answered with the stored,
	// verified response checksum instead of a kernel dispatch — a hit
	// synthesizes no input and touches no plane — and concurrent
	// identical requests coalesce into one execution. The lookup is the
	// first step after decode, so hits and coalesced waiters never
	// consume admission slots; responses carry X-Memo:
	// hit|miss|coalesced and /memo exposes the cache view. Zero MaxBytes
	// disables memoization entirely. Memo.Registry is overridden with the
	// server's registry.
	Memo memo.Config
}

func (c Config) normalized() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
		w := c.Parallel.Workers
		if w < 0 {
			w = runtime.GOMAXPROCS(0)
		}
		if w > 1 {
			c.MaxConcurrent = max(1, runtime.GOMAXPROCS(0)/w)
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 2 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 10 * time.Second
	}
	if c.MaxPixels <= 0 {
		c.MaxPixels = 1 << 22
	}
	if c.Guard == (cv.GuardPolicy{}) {
		c.Guard = cv.DefaultGuardPolicy()
		c.Guard.KillAfter = -1
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.TelemetryRing <= 0 {
		c.TelemetryRing = 300
	}
	return c
}

func (c Config) limits() Limits {
	return Limits{
		MaxPixels:       c.MaxPixels,
		DefaultDeadline: c.DefaultDeadline,
		MaxDeadline:     c.MaxDeadline,
	}
}

// injCell wraps an injector for atomic.Value (which needs a consistent
// concrete type across stores).
type injCell struct{ inj faults.Injector }

// scrubOnce guards installation of the process-wide pool scrubber; the
// scratch pool in internal/par is shared across servers, so the scrubber
// is too.
var scrubOnce sync.Once

// Server is the serving front-end: bounded admission, per-request
// deadlines, breaker-mediated SIMD dispatch, and the observability
// endpoints. Create with NewServer; serve via Handler.
type Server struct {
	cfg Config
	reg *obs.Registry
	brk *resilience.BreakerSet
	adm *admission

	pools    map[cv.ISA]*sync.Pool
	inj      atomic.Value // injCell
	draining atomic.Bool

	sup *super.Supervisor
	wd  *super.Watchdog

	aud   *integrity.Auditor
	board *integrity.Scoreboard

	memo *memo.Cache
	// synthPar bands each request's input synthesis as the worker Ops
	// band its kernels: cv.Ops.SetParallel's rule applied to
	// Config.Parallel.
	synthPar par.Config
	// memoParams is each request kernel's memo parameter string, its
	// spec.sig plus the fuse signature, built once so a lookup allocates
	// no key.
	memoParams map[string]string

	ts    *tsdb.Store
	slo   *sloTracker
	start time.Time

	// traceBase salts generated trace IDs with the process start time, so
	// IDs from two incarnations of the server never collide in a shared
	// trace store; reqSeq makes them unique within one.
	traceBase uint32
	reqSeq    atomic.Uint64
	flightMu  sync.Mutex
	flight    map[string]*inflight
}

// inflight is one admitted /process request's live entry for /livez.
type inflight struct {
	id     string
	kernel string
	isa    string
	start  time.Time
}

// testProcessStart, when non-nil, runs after a request clears admission
// and before its kernel dispatch. Tests use it to hold slots open
// deterministically; production never sets it.
var testProcessStart func()

// NewServer builds a Server from cfg.
func NewServer(cfg Config) *Server {
	cfg = cfg.normalized()
	s := &Server{
		cfg:       cfg,
		reg:       cfg.Registry,
		brk:       resilience.NewBreakerSet(cfg.Breaker, cfg.Registry),
		adm:       newAdmission(cfg.MaxConcurrent, cfg.QueueDepth, cfg.Registry),
		sup:       super.NewSupervisor(cfg.Quarantine, cfg.Registry),
		flight:    map[string]*inflight{},
		start:     time.Now(),
		traceBase: uint32(time.Now().UnixNano()),
	}
	s.synthPar = par.Config{Workers: 1}
	if w := cfg.Parallel.Workers; w != 0 && w != 1 {
		s.synthPar = cfg.Parallel.Normalized()
	}
	fuseSig := cfg.Fuse.Signature()
	s.memoParams = make(map[string]string, len(kernels))
	for name, spec := range kernels {
		s.memoParams[name] = spec.sig + "," + fuseSig
	}
	mcfg := cfg.Memo
	mcfg.Registry = cfg.Registry
	// The enable list accepts request names ("gaussian") as operators
	// type them; the cache keys on canonical kernel names. Copied, not
	// rewritten in place — the caller owns its slice.
	if len(mcfg.Kernels) > 0 {
		names := make([]string, len(mcfg.Kernels))
		for i, name := range mcfg.Kernels {
			if spec, ok := kernels[name]; ok {
				name = spec.name
			}
			names[i] = name
		}
		mcfg.Kernels = names
	}
	s.memo = memo.New(mcfg)
	if s.memo != nil {
		// Every quarantine path — scoreboard trip, panic quarantine,
		// journal replay — funnels through the set-level ForceStuckOpen,
		// so this one hook keeps the cache honest: a (kernel, ISA) pair
		// caught corrupting loses its cached results along with its
		// dispatch rights. Registered before the quarantine journal is
		// replayed below so replay invalidations are not missed.
		s.brk.OnForceStuckOpen(func(kernel, isa string) {
			s.memo.Invalidate(kernel, isa)
		})
	}
	s.ts = tsdb.New(s.reg, tsdb.Config{
		Interval: cfg.SampleInterval,
		Capacity: cfg.TelemetryRing,
		Runtime:  true,
	})
	if cfg.SampleInterval > 0 {
		s.ts.Start()
	}
	if !cfg.SLO.Disabled {
		s.slo = newSLOTracker(cfg.SLO, time.Now)
	}
	if cfg.QuarantineJournal != "" {
		s.openQuarantineJournal(cfg.QuarantineJournal)
	}
	if cfg.StallDeadline > 0 {
		s.wd = super.NewWatchdog(super.WatchdogConfig{Deadline: cfg.StallDeadline}, cfg.Registry)
	}
	if cfg.AuditRate > 0 {
		s.aud = integrity.NewAuditor(integrity.AuditConfig{Rate: cfg.AuditRate, Seed: cfg.AuditSeed})
		s.board = integrity.NewScoreboard(integrity.ScoreboardConfig{}, s.reg)
		// A scoreboard trip is the quarantine handoff: latch the pair's
		// breaker stuck-open so every subsequent dispatch demotes to the
		// scalar path. Siblings keep their own (closed) breakers.
		s.board.OnTrip(func(kernel, isa string) {
			s.brk.ForceStuckOpen(kernel, isa)
		})
		s.aud.SetScoreboard(s.board)
		// The pool scrubber is process-wide (the scratch pool is shared);
		// the first audited server installs it.
		scrubOnce.Do(func() {
			par.SetScrubber(integrity.NewPoolScrubber(s.reg))
		})
	}
	s.inj.Store(injCell{})
	s.pools = make(map[cv.ISA]*sync.Pool, 3)
	for _, isa := range []cv.ISA{cv.ISAScalar, cv.ISANEON, cv.ISASSE2} {
		isa := isa
		s.pools[isa] = &sync.Pool{New: func() any {
			o := cv.NewOps(isa, nil)
			o.SetGuarded(true)
			o.SetGuardPolicy(cfg.Guard)
			o.SetBreakers(s.brk)
			o.SetObserver(s.reg)
			o.SetParallel(cfg.Parallel)
			o.SetFuse(cfg.Fuse)
			o.SetSupervisor(s.sup)
			if s.wd != nil {
				o.SetWatchdog(s.wd)
			}
			if s.aud != nil && isa != cv.ISAScalar {
				o.SetAuditor(s.aud)
			}
			return o
		}}
	}
	return s
}

// openQuarantineJournal applies the serve-layer resume policy for the
// quarantine journal: replay a matching journal (latching the replayed
// pairs' breakers stuck-open), cold-start over a missing or corrupt one,
// and — uniquely here — degrade to no persistence on a mismatched file
// rather than failing startup: serving traffic beats remembering
// quarantines.
func (s *Server) openQuarantineJournal(path string) {
	j, resumed, warn, err := checkpoint.OpenOrCreate(path, "quarantine", quarantineFingerprint)
	if warn != nil {
		s.reg.Emit("checkpoint.corrupt", map[string]any{
			"path": path, "error": warn.Error(),
		})
	}
	if err != nil {
		s.reg.Emit("quarantine.journal_error", map[string]any{
			"path": path, "error": err.Error(),
		})
		return
	}
	replayed, err := s.sup.AttachJournal(j)
	if err != nil {
		s.reg.Emit("quarantine.journal_error", map[string]any{
			"path": path, "error": err.Error(),
		})
		return
	}
	for _, qr := range replayed {
		s.brk.ForceStuckOpen(qr.Kernel, qr.ISA)
	}
	s.reg.Emit("quarantine.journal_open", map[string]any{
		"path": path, "resumed": resumed, "quarantines": len(replayed),
	})
}

// quarantineFingerprint pins the quarantine journal to the serve layer's
// record schema; quarantine decisions are configuration-independent, so no
// run parameters participate.
const quarantineFingerprint = "serve-quarantine-v1"

// Supervisor returns the server's panic supervisor.
func (s *Server) Supervisor() *super.Supervisor { return s.sup }

// Close releases background resources (the stall watchdog's monitor
// goroutine, the time-series sampler). The HTTP side is unaffected; pair
// with http.Server.Shutdown.
func (s *Server) Close() {
	if s.wd != nil {
		s.wd.Stop()
	}
	s.ts.Stop()
}

// Registry returns the server's observability registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Breakers returns the server's circuit-breaker set.
func (s *Server) Breakers() *resilience.BreakerSet { return s.brk }

// Memo returns the server's result-memoization cache, or nil when
// Config.Memo left memoization disabled.
func (s *Server) Memo() *memo.Cache { return s.memo }

// SetFaultInjector attaches (or, with nil, detaches) a fault injector
// handed to worker Ops whose ISA matches Config.FaultISA. The injector
// must be safe for concurrent use; wrap single-threaded plans with
// LockInjector.
func (s *Server) SetFaultInjector(inj faults.Injector) { s.inj.Store(injCell{inj: inj}) }

// StartDrain flips the server to draining: /readyz turns 503 so load
// balancers stop routing here, while in-flight requests finish normally.
// The caller then runs http.Server.Shutdown for the connection-level
// drain.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the route table wrapped in panic recovery. The
// /debug/pprof endpoints expose the runtime profiles whose CPU samples
// carry the (kernel, isa, band) labels applied around kernel dispatch —
// continuous profiling is a curl away on any running server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/process", s.handleProcess)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/readyz", s.handleReady)
	mux.HandleFunc("/livez", s.handleLive)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics/stream", s.handleMetricsStream)
	mux.HandleFunc("/integrity", s.handleIntegrity)
	mux.HandleFunc("/memo", s.handleMemo)
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return s.recoverWrap(mux)
}

// requestID returns the trace ID recoverWrap assigned to this request, or
// "". It is the one ID of the request: the X-Request-ID header, the
// request_id of serve.panic events and error bodies, the trace_id of
// kernel spans and histogram exemplars are all this string.
func requestID(ctx context.Context) string {
	return obs.TraceID(ctx)
}

// traceIDPattern is what an inbound X-Request-ID must look like to be
// adopted as the request's trace ID; anything else (too long, spoofable
// syntax) is replaced with a generated one.
func validTraceID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' ||
			'0' <= c && c <= '9' || c == '-' || c == '_' || c == '.') {
			return false
		}
	}
	return true
}

// recoverWrap assigns every request one trace ID — an inbound
// X-Request-ID when the client sent a well-formed one (propagation from
// an upstream caller), else a generated process-unique hex ID — echoes it
// in the X-Request-ID response header, binds it to the request context
// for the kernel/exemplar layers, and turns handler panics into 500s and
// a panics_total sample — one bad request must not take down the process.
// The same ID ties the 500 the client sees to the serve.panic event in
// the operator's event stream and to any exemplars the request left on
// the latency histograms.
func (s *Server) recoverWrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if !validTraceID(id) {
			id = fmt.Sprintf("%08x%08x", s.traceBase, s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", id)
		r = r.WithContext(obs.WithTrace(r.Context(), id))
		defer func() {
			if rec := recover(); rec != nil {
				s.reg.Counter("panics_total").Inc()
				s.reg.Emit("serve.panic", map[string]any{
					"path": r.URL.Path, "panic": fmt.Sprint(rec), "request_id": id,
				})
				s.writeJSON(w, http.StatusInternalServerError,
					map[string]any{"error": "internal error", "request_id": id})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// flightStart registers one admitted request for the /livez view.
func (s *Server) flightStart(id, kernel, isa string) *inflight {
	f := &inflight{id: id, kernel: kernel, isa: isa, start: time.Now()}
	s.flightMu.Lock()
	s.flight[id] = f
	s.flightMu.Unlock()
	return f
}

// flightEnd removes a completed request from the /livez view.
func (s *Server) flightEnd(f *inflight) {
	s.flightMu.Lock()
	delete(s.flight, f.id)
	s.flightMu.Unlock()
}

// handleLive is the supervision view: always 200 (the process is alive to
// answer), reporting in-flight requests with their ages, live watchdog
// sections, total stalls declared, and the quarantined (kernel, ISA)
// pairs. Status "degraded" means at least one pair is quarantined.
func (s *Server) handleLive(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()
	s.flightMu.Lock()
	inFlight := make([]map[string]any, 0, len(s.flight))
	for _, f := range s.flight {
		inFlight = append(inFlight, map[string]any{
			"id": f.id, "kernel": f.kernel, "isa": f.isa,
			"age_ms": now.Sub(f.start).Milliseconds(),
		})
	}
	s.flightMu.Unlock()
	sort.Slice(inFlight, func(i, j int) bool {
		return inFlight[i]["id"].(string) < inFlight[j]["id"].(string)
	})

	quarantines := s.sup.Quarantines()
	status := "ok"
	if len(quarantines) > 0 {
		status = "degraded"
	}
	body := map[string]any{
		"status":      status,
		"in_flight":   inFlight,
		"quarantined": quarantines,
	}
	if s.wd != nil {
		body["stalls_total"] = s.wd.Stalls()
		body["watch_sections"] = s.wd.Snapshot(now)
	}
	s.writeJSON(w, http.StatusOK, body)
}

// handleIntegrity is the corruption-defense status view: the audit
// sampler's configured and load-scaled effective rates with its lifetime
// tallies, the scoreboard's per-(kernel, ISA) decayed mismatch scores, and
// which pairs have latched quarantine. With auditing disabled it reports
// {"enabled": false} so dashboards can probe the endpoint unconditionally.
func (s *Server) handleIntegrity(w http.ResponseWriter, _ *http.Request) {
	if s.aud == nil {
		s.writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	quarantined := []string{}
	for _, p := range s.board.Snapshot() {
		if p.Tripped {
			quarantined = append(quarantined, p.Kernel+"/"+p.ISA)
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"enabled":         true,
		"configured_rate": s.aud.Config().Rate,
		"effective_rate":  s.aud.EffectiveRate(),
		"sampled":         s.aud.Sampled(),
		"skipped":         s.aud.Skipped(),
		"mismatches":      s.aud.Mismatches(),
		"pairs":           s.board.Snapshot(),
		"quarantined":     quarantined,
	})
}

// writeJSON emits one JSON response and counts it under requests_total.
func (s *Server) writeJSON(w http.ResponseWriter, code int, body any) {
	s.reg.Counter("requests_total", obs.L("code", strconv.Itoa(code))).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(body)
}

// shed emits the load-shedding response: 429 with Retry-After, counted
// under requests_shed_total by reason ("queue" or "deadline").
func (s *Server) shed(w http.ResponseWriter, reason string, detail string) {
	s.reg.Counter("requests_shed_total", obs.L("reason", reason)).Inc()
	w.Header().Set("Retry-After", "1")
	s.writeJSON(w, http.StatusTooManyRequests,
		map[string]any{"error": detail, "reason": reason})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleReady reports readiness: 503 while draining, otherwise 200 with
// the full breaker snapshot. Status "degraded" means at least one
// (kernel, ISA) pair is not closed — those calls are being served by the
// scalar path, so the process still accepts traffic.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	snap := s.brk.Snapshot()
	states := make(map[string]string, len(snap))
	status := "ok"
	for k, st := range snap {
		states[k] = st.String()
		if st != resilience.StateClosed {
			status = "degraded"
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"status": status, "breakers": states})
}

// handleMetrics serves the registry in classic Prometheus text by
// default; `?format=openmetrics` or an Accept header naming
// application/openmetrics-text selects the OpenMetrics rendering, which
// is the one that carries trace-ID exemplars on histogram buckets. SLO
// burn gauges are recomputed on every scrape so they are never stale.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.slo.publish(s.reg)
	format := r.URL.Query().Get("format")
	if format == "openmetrics" ||
		(format == "" && strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text")) {
		w.Header().Set("Content-Type",
			"application/openmetrics-text; version=1.0.0; charset=utf-8")
		s.reg.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WritePrometheus(w)
}

// statusWriter captures the response status so the SLO tracker can judge
// the request after the handler body has written it, and the kernel whose
// request_seconds series the request is observed in ("" for none).
type statusWriter struct {
	http.ResponseWriter
	code   int
	kernel string
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// handleProcess times the request from arrival (queue wait included) to
// its response written, and feeds its verdict — response code plus full
// latency — to the SLO tracker and, for a request that ran or was answered
// for a kernel, to that kernel's request_seconds series; the dispatch
// itself lives in processRequest.
func (s *Server) handleProcess(w http.ResponseWriter, r *http.Request) {
	entry := time.Now()
	sw := &statusWriter{ResponseWriter: w}
	s.processRequest(sw, r)
	elapsed := time.Since(entry)
	if sw.kernel != "" {
		s.reg.Histogram("request_seconds", requestBuckets, obs.L("kernel", sw.kernel)).
			ObserveExemplar(elapsed.Seconds(), requestID(r.Context()), s.reg.Now())
	}
	code := sw.code
	if code == 0 {
		code = http.StatusOK
	}
	s.slo.record(code, elapsed)
}

// processRequest runs one kernel dispatch: decode, admit (or shed),
// synthesize the source frame, run the guarded Ctx kernel under the
// request deadline, and report the outcome with the breaker's view of the
// (kernel, ISA) pair. A request that reaches its kernel is marked for
// request_seconds on w.
func (s *Server) processRequest(w *statusWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		s.writeJSON(w, http.StatusMethodNotAllowed,
			map[string]any{"error": "use GET or POST"})
		return
	}
	req, err := ParseRequest(r.URL.Query(), s.cfg.limits())
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), req.Deadline)
	defer cancel()

	spec := kernels[req.Kernel]
	if s.memo.Enabled(spec.name) {
		s.processMemo(ctx, w, req, spec)
		return
	}

	if err := s.adm.acquire(ctx); err != nil {
		if errors.Is(err, errShed) {
			s.shed(w, "queue", "admission queue full")
		} else {
			s.shed(w, "deadline", "deadline expired while queued")
		}
		return
	}
	defer s.adm.release()

	src := s.synthesize(spec.srcKind, req.Width, req.Height, req.Seed)
	dst, err := spec.dst(req.Width, req.Height)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}

	faults, elapsed, err := s.dispatch(ctx, req, spec, src, dst)
	w.kernel = spec.name
	if err != nil {
		s.writeDispatchError(ctx, w, req, spec, err)
		return
	}
	s.writeResult(w, req, spec, checksum(dst), elapsed, faults, "")
}

// dispatch runs one admitted kernel execution end to end: /livez flight
// registration, audit load scaling, worker Ops checkout and the
// pprof-labeled kernel run, whose duration it returns. The caller holds an
// admission slot (non-memo path) or acquires one inside compute (memo
// path).
func (s *Server) dispatch(ctx context.Context, req Request, spec kernelSpec, src, dst *image.Mat) (int, time.Duration, error) {
	// Queue headroom drives the effective audit rate: a filling queue
	// down-samples audits before it delays requests.
	if s.aud != nil {
		s.aud.SetLoadFactor(1 - s.adm.fill())
	}

	// Admitted: visible on /livez from here until the dispatch returns.
	fl := s.flightStart(requestID(ctx), spec.name, req.ISA.String())
	defer s.flightEnd(fl)
	if testProcessStart != nil {
		testProcessStart()
	}

	o := s.pools[req.ISA].Get().(*cv.Ops)
	defer s.pools[req.ISA].Put(o)
	o.ResetFaults()
	o.SetFaultInjector(s.injectorFor(req.ISA))

	// The pprof labels make CPU profiles attributable: every sample taken
	// inside the dispatch carries (kernel, isa), so `go tool pprof -tags`
	// splits hot CPU by kernel without any symbol spelunking. Band workers
	// add their own band label on top (see cv.bandProf).
	var err error
	start := time.Now()
	pprof.Do(ctx, pprof.Labels("kernel", spec.name, "isa", req.ISA.String()),
		func(ctx context.Context) {
			err = spec.run(ctx, o, src, dst)
		})
	return len(o.Faults()), time.Since(start), err
}

// processMemo serves one request through the memoization layer. The
// request key is the first thing built after decode: a hit or a coalesced
// waiter is answered with the stored response checksum, without
// synthesizing the input, taking a plane or consuming an admission slot.
// Only the flight leader's compute closure acquires a slot, synthesizes,
// runs the kernel into a pooled plane and returns its checksum. Hit
// responses flow through the same writeJSON/statusWriter path as compute
// responses, so they count toward the availability and latency SLOs like
// any other request.
func (s *Server) processMemo(ctx context.Context, w *statusWriter, req Request, spec kernelSpec) {
	dw, dh := spec.dstDims(req.Width, req.Height)
	if dw < 1 || dh < 1 {
		s.writeJSON(w, http.StatusBadRequest, map[string]any{
			"error": fmt.Sprintf("destination %dx%d has no pixels", dw, dh)})
		return
	}
	key := s.memoKey(req, spec)

	var faults int
	start := time.Now()
	sum, outcome, err := s.memo.DoSum(ctx, key, func(ctx context.Context) (uint64, error) {
		if err := s.adm.acquire(ctx); err != nil {
			return 0, err
		}
		defer s.adm.release()
		src := s.synthesize(spec.srcKind, req.Width, req.Height, req.Seed)
		dst := par.GetMat(dw, dh, spec.dstKind)
		defer par.PutMat(dst)
		f, _, err := s.dispatch(ctx, req, spec, src, dst)
		w.kernel = spec.name
		faults = f
		if err != nil {
			return 0, err
		}
		return checksum(dst), nil
	})
	elapsed := time.Since(start)
	w.Header().Set("X-Memo", outcome.String())

	if err != nil {
		if errors.Is(err, errShed) {
			s.shed(w, "queue", "admission queue full")
			return
		}
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.shed(w, "deadline", "deadline expired while queued")
			return
		}
		s.writeDispatchError(ctx, w, req, spec, err)
		return
	}
	// Hits and coalesced responses count in request_seconds like a
	// computed miss: the histogram is the per-kernel traffic view, and
	// these are requests the server answered (their sub-millisecond
	// latency is exactly the point; memo_hit_seconds holds the
	// fine-grained lookup distribution).
	w.kernel = spec.name
	s.writeResult(w, req, spec, sum, elapsed, faults, outcome.String())
}

// memoKey is the memo request key for req: every field of the request
// that fixes the response, plus the server's fuse configuration.
func (s *Server) memoKey(req Request, spec kernelSpec) memo.RequestKey {
	return memo.RequestKey{
		Kernel: spec.name, ISA: req.ISA.String(), Params: s.memoParams[req.Kernel],
		Width: req.Width, Height: req.Height, Seed: req.Seed,
	}
}

// writeDispatchError maps a kernel-dispatch error to its response: typed
// deadline errors shed, stalls are server faults, anything else is the
// client geometry error it can only be.
func (s *Server) writeDispatchError(ctx context.Context, w http.ResponseWriter, req Request, spec kernelSpec, err error) {
	var de *resilience.DeadlineError
	if errors.As(err, &de) {
		// Mid-kernel deadline expiry is shed like queue overflow: the
		// client's budget is spent, and backing off is the remedy.
		s.shed(w, "deadline", de.Error())
		return
	}
	var se *super.StallError
	if errors.As(err, &se) {
		// A wedged kernel band: the watchdog cancelled the pass and the
		// verdict already reached the pair's breaker. 500, not 429 — the
		// fault is ours, and the client may retry immediately (the retry
		// will run scalar if the breaker opened).
		s.reg.Counter("request_stalls_total",
			obs.L("kernel", spec.name), obs.L("isa", req.ISA.String())).Inc()
		s.writeJSON(w, http.StatusInternalServerError, map[string]any{
			"error": se.Error(), "stall": true, "band": se.Band,
			"request_id": requestID(ctx),
		})
		return
	}
	// Kernels only fail on invalid geometry (faults are absorbed by
	// the guard); report it as the client error it is.
	s.writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
}

// writeResult emits the 200 response for a completed request from the
// checksum of its output plane. memo names how the memoization layer
// satisfied it ("" when memoization is off for the kernel).
func (s *Server) writeResult(w http.ResponseWriter, req Request, spec kernelSpec, sum uint64, elapsed time.Duration, faults int, memoOutcome string) {
	body := map[string]any{
		"kernel":     spec.name,
		"isa":        req.ISA.String(),
		"width":      req.Width,
		"height":     req.Height,
		"seed":       req.Seed,
		"checksum":   strconv.FormatUint(sum, 16),
		"elapsed_us": elapsed.Microseconds(),
		"faults":     faults,
		"breaker":    s.brk.State(spec.name, req.ISA.String()).String(),
	}
	if memoOutcome != "" {
		body["memo"] = memoOutcome
	}
	s.writeJSON(w, http.StatusOK, body)
}

// handleMemo is the result-cache status view: occupancy against budget,
// hit/miss/coalesce tallies, and the per-(kernel, ISA) entry breakdown.
// With memoization disabled it reports {"enabled": false} so dashboards
// can probe the endpoint unconditionally.
func (s *Server) handleMemo(w http.ResponseWriter, _ *http.Request) {
	if s.memo == nil {
		s.writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	flights, participants := s.memo.InFlight()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"enabled":      true,
		"stats":        s.memo.Stats(),
		"kernels":      s.memo.Kernels(),
		"flights":      flights,
		"participants": participants,
	})
}

// requestBuckets are the request_seconds histogram bounds.
var requestBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// injectorFor returns the attached injector when it applies to this ISA:
// scalar Ops never get one (the referee must stay trustworthy), and
// Config.FaultISA narrows injection to a single SIMD family.
func (s *Server) injectorFor(isa cv.ISA) faults.Injector {
	cell := s.inj.Load().(injCell)
	if cell.inj == nil || isa == cv.ISAScalar {
		return nil
	}
	if s.cfg.FaultISA != "" && s.cfg.FaultISA != isa.String() {
		return nil
	}
	return cell.inj
}

// synthesize builds a request's source plane across the band count its
// kernels use, on the par pool. The bytes are image.Synthetic's (or
// image.SyntheticF32's) whatever the band count.
func (s *Server) synthesize(kind image.Type, w, h int, seed uint64) *image.Mat {
	m := image.NewMat(w, h, kind)
	image.SynthesizeInto(m, seed, par.NBands(h, s.synthPar.Workers, s.synthPar.MinRowsPerBand), runBands)
	return m
}

// runBands runs band(0) .. band(n-1) on the par pool and re-raises the
// first band panic on the caller.
func runBands(n int, band func(i int)) {
	if p := par.FirstPanic(par.Run(n, band), nil); p != nil {
		panic(p)
	}
}

// LockInjector wraps an injector with a mutex so single-threaded fault
// plans (faults.Plan mutates its RNG state on every call) can be shared
// across concurrent worker Ops.
func LockInjector(inner faults.Injector) faults.Injector {
	return &lockedInjector{inner: inner}
}

type lockedInjector struct {
	mu    sync.Mutex
	inner faults.Injector
}

func (l *lockedInjector) V128(site faults.Site, v vec.V128) vec.V128 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.V128(site, v)
}

func (l *lockedInjector) V64(site faults.Site, v vec.V64) vec.V64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.V64(site, v)
}

func (l *lockedInjector) Skew(site faults.Site, slack int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.Skew(site, slack)
}
