// Package integrity is the silent-data-corruption defense layer: sampled
// redundant-execution audits of the hand-SIMD kernels, block checksums for
// planes crossing stage or pool boundaries, and a per-(kernel, ISA)
// corruption scoreboard that escalates persistent mismatch rates into the
// resilience layer's quarantine.
//
// The existing guard/breaker/supervisor machinery reacts to loud failures
// — detections, panics, stalls. This package closes the quiet failure
// class: a defective vector unit (or a subtly wrong tail path) that
// returns success with wrong bytes. A deterministic, seedable sampler
// re-runs a configurable fraction of SIMD kernel calls on the scalar
// reference path and compares outputs; mismatches become typed
// CorruptionErrors, land in the observability registry
// (audit_total, corruption_detected_total, the audit_seconds histogram
// with trace-ID exemplars), and feed the scoreboard, whose decayed rate
// crossing a threshold latches the pair's breaker stuck-open so traffic
// transparently demotes to scalar.
package integrity

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"simdstudy/internal/obs"
)

// AuditConfig tunes the sampled redundant-execution audits.
type AuditConfig struct {
	// Rate is the fraction of SIMD kernel calls re-run on the scalar
	// reference path, in [0, 1]. Zero disables auditing entirely (the
	// sampler's skip path is a single atomic load); 1 audits every call.
	Rate float64
	// Seed drives the deterministic sampler stream. Zero means 1, so two
	// runs with identical configuration sample identical calls.
	Seed uint64
}

// Region is the row window an audit compared ([Row0, Row1) of a
// Width-column image).
type Region struct {
	Row0  int `json:"row0"`
	Row1  int `json:"row1"`
	Width int `json:"width"`
}

// CorruptionError is a typed audit mismatch: the SIMD output diverged from
// the scalar reference beyond the kernel's tolerance with no error
// reported — the silent-corruption signature.
type CorruptionError struct {
	Kernel    string `json:"kernel"`
	ISA       string `json:"isa"`
	Region    Region `json:"region"`
	FirstDiff int    `json:"first_diff"` // plane-linear element index of the first divergence
	Diffs     int    `json:"diffs"`      // diverging elements inside Region
}

// Error renders the mismatch.
func (e *CorruptionError) Error() string {
	return fmt.Sprintf("integrity: %s/%s silent corruption: %d pixels diverge from scalar reference in rows [%d,%d), first at index %d",
		e.Kernel, e.ISA, e.Diffs, e.Region.Row0, e.Region.Row1, e.FirstDiff)
}

// AuditResume is the checkpointable sampler position: restoring it into a
// fresh Auditor makes the remaining calls draw exactly the sampling
// decisions the interrupted process would have drawn.
type AuditResume struct {
	RNG        uint64 `json:"rng"`
	Sampled    uint64 `json:"sampled"`
	Skipped    uint64 `json:"skipped"`
	Mismatches uint64 `json:"mismatches"`
}

// Auditor is the deterministic audit sampler plus the outcome recorder.
// One Auditor may be shared by every worker Ops of a server: Sample is a
// mutexed xorshift draw, Observe only touches nil-safe registry handles
// and the (mutexed) scoreboard. With an effective rate of zero the skip
// path performs no locking and no allocation — the zero-cost-off contract
// the Host* benchmark gate enforces.
type Auditor struct {
	cfg AuditConfig

	// eff is math.Float64bits of the effective rate: Rate scaled by the
	// current load factor. An atomic load of zero is the entire cost of a
	// disabled audit hook.
	eff atomic.Uint64

	mu  sync.Mutex
	rng uint64

	sampled    atomic.Uint64
	skipped    atomic.Uint64
	mismatches atomic.Uint64

	board atomic.Pointer[Scoreboard]
}

// NewAuditor builds an Auditor; cfg.Rate is clamped to [0, 1].
func NewAuditor(cfg AuditConfig) *Auditor {
	if cfg.Rate < 0 {
		cfg.Rate = 0
	}
	if cfg.Rate > 1 {
		cfg.Rate = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	a := &Auditor{cfg: cfg, rng: cfg.Seed}
	a.eff.Store(math.Float64bits(cfg.Rate))
	return a
}

// Config returns the configuration the Auditor was built with.
func (a *Auditor) Config() AuditConfig { return a.cfg }

// SetScoreboard attaches (or, with nil, detaches) the scoreboard Observe
// feeds verdicts to.
func (a *Auditor) SetScoreboard(b *Scoreboard) { a.board.Store(b) }

// SetLoadFactor scales the effective sampling rate to Rate*f, with f
// clamped to [0, 1]. The serving front-end drives this from admission
// queue occupancy so audits shed before request latency does: a full
// queue silences auditing entirely rather than spending the SLO budget on
// redundant recomputation.
func (a *Auditor) SetLoadFactor(f float64) {
	if f < 0 || math.IsNaN(f) {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	a.eff.Store(math.Float64bits(a.cfg.Rate * f))
}

// EffectiveRate returns the current load-scaled sampling rate.
func (a *Auditor) EffectiveRate() float64 {
	return math.Float64frombits(a.eff.Load())
}

// Sample draws one deterministic sampling decision. The draw sequence
// depends only on Seed and the number of prior draws, never on outcomes,
// so the set of audited calls at rate r is a per-call Bernoulli(r)
// thinning of the rate-1.0 set — the property the detection-rate tests
// assert binomial bounds against.
func (a *Auditor) Sample() bool {
	bits := a.eff.Load()
	if bits == 0 {
		return false
	}
	rate := math.Float64frombits(bits)
	a.mu.Lock()
	s := a.rng
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	a.rng = s
	a.mu.Unlock()
	u := float64((s*0x2545F4914F6CDD1D)>>11) / (1 << 53)
	if u < rate {
		a.sampled.Add(1)
		return true
	}
	a.skipped.Add(1)
	return false
}

// Observe records one audit outcome: the audit_total{kernel,isa,outcome}
// counter, the audit_seconds{kernel,isa} histogram (stamped with the
// request's trace ID as an exemplar when one is bound), and — on a
// mismatch — corruption_detected_total{kernel,isa} plus an
// integrity.corruption event carrying the region and first diverging
// index. The verdict also feeds the attached scoreboard, and Observe
// reports whether it tripped the pair (once per pair): the caller owns the
// quarantine. reg may be nil.
func (a *Auditor) Observe(reg *obs.Registry, kernel, isa string, dur time.Duration, traceID string, ce *CorruptionError) (tripped bool) {
	if ce != nil {
		a.mismatches.Add(1)
	}
	lk, li := obs.L("kernel", kernel), obs.L("isa", isa)
	outcome := "clean"
	if ce != nil {
		outcome = "mismatch"
	}
	reg.Counter("audit_total", lk, li, obs.L("outcome", outcome)).Inc()
	h := reg.Histogram("audit_seconds", nil, lk, li)
	if traceID != "" {
		h.ObserveExemplar(dur.Seconds(), traceID, reg.Now())
	} else {
		h.Observe(dur.Seconds())
	}
	if ce != nil {
		reg.Counter("corruption_detected_total", lk, li).Inc()
		reg.Emit("integrity.corruption", map[string]any{
			"kernel": kernel, "isa": isa,
			"row0": ce.Region.Row0, "row1": ce.Region.Row1,
			"first_diff": ce.FirstDiff, "diffs": ce.Diffs,
		})
	}
	_, tripped = a.board.Load().Record(kernel, isa, ce != nil)
	return tripped
}

// Sampled returns how many calls the sampler selected for audit.
func (a *Auditor) Sampled() uint64 { return a.sampled.Load() }

// Skipped returns how many eligible calls the sampler passed over.
func (a *Auditor) Skipped() uint64 { return a.skipped.Load() }

// Mismatches returns how many audits observed silent corruption.
func (a *Auditor) Mismatches() uint64 { return a.mismatches.Load() }

// Resume snapshots the sampler position for checkpointing.
func (a *Auditor) Resume() AuditResume {
	a.mu.Lock()
	rng := a.rng
	a.mu.Unlock()
	return AuditResume{
		RNG:        rng,
		Sampled:    a.sampled.Load(),
		Skipped:    a.skipped.Load(),
		Mismatches: a.mismatches.Load(),
	}
}

// SetResume restores a position snapshotted by Resume. A zero RNG (an
// empty checkpoint field) restores the seed's initial stream.
func (a *Auditor) SetResume(r AuditResume) {
	a.mu.Lock()
	if r.RNG != 0 {
		a.rng = r.RNG
	} else {
		a.rng = a.cfg.Seed
	}
	a.mu.Unlock()
	a.sampled.Store(r.Sampled)
	a.skipped.Store(r.Skipped)
	a.mismatches.Store(r.Mismatches)
}
