package integrity

import (
	"sort"
	"strings"
	"sync"

	"simdstudy/internal/obs"
)

// scoreDecay is the EWMA weight a new audit verdict carries: score becomes
// (1-scoreDecay)*score + scoreDecay*verdict (verdict 1 on mismatch, 0 on
// clean), so a pure mismatch burst reaches score 1-(0.75)^n after n audits.
const scoreDecay = 0.25

// ScoreboardConfig tunes the corruption scoreboard.
type ScoreboardConfig struct {
	// Threshold is the decayed mismatch rate that quarantines a pair.
	// Zero selects the default 0.5.
	Threshold float64
	// MinSamples is how many audits a pair needs before it may trip, so a
	// single early mismatch on a cold pair cannot quarantine it. Zero
	// selects the default 8; negative means no minimum.
	MinSamples int
}

func (c ScoreboardConfig) normalized() ScoreboardConfig {
	if c.Threshold <= 0 {
		c.Threshold = 0.5
	}
	if c.MinSamples == 0 {
		c.MinSamples = 8
	}
	return c
}

// PairScore is one (kernel, ISA) row of a scoreboard snapshot.
type PairScore struct {
	Kernel     string  `json:"kernel"`
	ISA        string  `json:"isa"`
	Score      float64 `json:"score"` // decayed mismatch rate in [0,1]
	Audits     uint64  `json:"audits"`
	Mismatches uint64  `json:"mismatches"`
	Tripped    bool    `json:"tripped"`
}

type scoreCell struct {
	score      float64
	audits     uint64
	mismatches uint64
	tripped    bool
}

// Scoreboard tracks a decayed corruption (audit-mismatch) rate per
// (kernel, ISA) pair and latches a once-only trip when a pair's rate
// crosses the threshold with enough samples behind it. Record (and
// Auditor.Observe above it) returns the trip to the caller; the kernel
// call frame in internal/cv hands it to its breaker set as a corruption
// quarantine, so a corrupting unit is terminally demoted to the scalar
// path while sibling pairs keep their closed breakers.
//
// Sub-threshold mismatches never trip — they feed the breaker as ordinary
// failure verdicts at the audit site, so a transiently flaky unit recovers
// through the existing half-open probe protocol instead of being latched
// out. Safe for concurrent use.
type Scoreboard struct {
	cfg ScoreboardConfig
	reg *obs.Registry

	mu    sync.Mutex
	cells map[string]*scoreCell
}

// NewScoreboard builds a scoreboard reporting to reg (which may be nil):
// corruption_score{kernel,isa} gauges on every verdict and an
// integrity_trips_total{kernel,isa} counter plus integrity.quarantine
// event when a pair trips.
func NewScoreboard(cfg ScoreboardConfig, reg *obs.Registry) *Scoreboard {
	return &Scoreboard{
		cfg:   cfg.normalized(),
		reg:   reg,
		cells: map[string]*scoreCell{},
	}
}

// Record folds one audit verdict into the pair's decayed rate and reports
// the updated score and whether this verdict tripped quarantine — true
// exactly once per pair.
func (b *Scoreboard) Record(kernel, isa string, mismatch bool) (score float64, tripped bool) {
	if b == nil {
		return 0, false
	}
	key := kernel + "/" + isa
	b.mu.Lock()
	c := b.cells[key]
	if c == nil {
		c = &scoreCell{}
		b.cells[key] = c
	}
	v := 0.0
	if mismatch {
		v = 1.0
		c.mismatches++
	}
	c.audits++
	c.score = (1-scoreDecay)*c.score + scoreDecay*v
	score = c.score
	enough := b.cfg.MinSamples < 0 || c.audits >= uint64(b.cfg.MinSamples)
	if !c.tripped && enough && c.score >= b.cfg.Threshold {
		c.tripped = true
		tripped = true
	}
	b.mu.Unlock()

	lk, li := obs.L("kernel", kernel), obs.L("isa", isa)
	b.reg.Gauge("corruption_score", lk, li).Set(score)
	if tripped {
		b.reg.Counter("integrity_trips_total", lk, li).Inc()
		b.reg.Emit("integrity.quarantine", map[string]any{
			"kernel": kernel, "isa": isa, "score": score,
		})
	}
	return score, tripped
}

// Snapshot returns every pair's state, sorted by kernel then ISA — a
// stable order for the /integrity view and for logs.
func (b *Scoreboard) Snapshot() []PairScore {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	out := make([]PairScore, 0, len(b.cells))
	for key, c := range b.cells {
		i := strings.LastIndexByte(key, '/')
		out = append(out, PairScore{
			Kernel: key[:i], ISA: key[i+1:],
			Score: c.score, Audits: c.audits,
			Mismatches: c.mismatches, Tripped: c.tripped,
		})
	}
	b.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kernel != out[j].Kernel {
			return out[i].Kernel < out[j].Kernel
		}
		return out[i].ISA < out[j].ISA
	})
	return out
}
