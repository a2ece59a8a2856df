// Package super is the supervision layer above the kernel library's
// parallel bands and the serving front-end's workers: a heartbeat watchdog
// that detects wedged bands and cancels their siblings (watchdog.go), and a
// panic supervisor that promotes "rethrow the lowest band panic" into a
// policy — it counts panics per (kernel, ISA) pair, names the record that
// crosses QuarantinePolicy.MaxPanics, and journals that decision
// (internal/checkpoint) so a restarted process does not re-probe a
// known-poisonous path.
//
// The split of responsibilities with internal/resilience: breakers answer
// "should this call use SIMD right now?" from guard verdicts, and hold
// every quarantine as a stuck-open breaker with a reason; the supervisor
// answers "has this pair panicked too often?" and leaves the latch to its
// caller (the cv call frame quarantines the pair's breaker for panic, the
// serving layer replays the journal into the same breakers at startup).
package super

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"simdstudy/internal/checkpoint"
	"simdstudy/internal/obs"
)

// QuarantinePolicy tunes the panic supervisor. The zero value selects the
// defaults noted per field.
type QuarantinePolicy struct {
	// MaxPanics is how many recorded panics a (kernel, ISA) pair survives
	// before it is quarantined. Default 3.
	MaxPanics int
}

func (p QuarantinePolicy) normalized() QuarantinePolicy {
	if p.MaxPanics <= 0 {
		p.MaxPanics = 3
	}
	return p
}

// QuarantineRecord is one quarantine decision: the pair, how many panics it
// took, and the last panic value. It is the journal payload for persistent
// quarantine, so the fields are JSON-stable.
type QuarantineRecord struct {
	Kernel   string `json:"kernel"`
	ISA      string `json:"isa"`
	Panics   int    `json:"panics"`
	Reason   string `json:"reason"`
	UnixNano int64  `json:"unix_nano"`
}

// Supervisor tracks panics per (kernel, ISA) pair and names repeat
// offenders for quarantine. All methods are safe for concurrent use.
type Supervisor struct {
	mu      sync.Mutex
	policy  QuarantinePolicy
	reg     *obs.Registry
	panics  map[string]int
	journal *checkpoint.Journal
	clock   func() time.Time
}

// NewSupervisor builds a supervisor with the given policy, reporting into
// reg (which may be nil).
func NewSupervisor(policy QuarantinePolicy, reg *obs.Registry) *Supervisor {
	return &Supervisor{
		policy: policy.normalized(),
		reg:    reg,
		panics: map[string]int{},
		clock:  time.Now,
	}
}

// SetClock injects a time source for tests; nil restores time.Now.
func (s *Supervisor) SetClock(clock func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if clock == nil {
		clock = time.Now
	}
	s.clock = clock
}

func key(kernel, isa string) string { return kernel + "/" + isa }

// AttachJournal binds a checkpoint journal to the supervisor: existing
// records are replayed (a replayed pair counts as at least MaxPanics, so
// it is never named for quarantine twice) and future quarantine decisions
// are appended to it. It returns the replayed records for the caller to
// latch (the serving layer quarantines the matching breakers for panic).
func (s *Supervisor) AttachJournal(j *checkpoint.Journal) ([]QuarantineRecord, error) {
	replayed := make([]QuarantineRecord, 0, j.Len())
	for _, rec := range j.Records() {
		var qr QuarantineRecord
		if err := json.Unmarshal(rec.Data, &qr); err != nil {
			return nil, fmt.Errorf("super: quarantine journal record %d: %w", rec.Seq, err)
		}
		replayed = append(replayed, qr)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = j
	for _, qr := range replayed {
		k := key(qr.Kernel, qr.ISA)
		s.panics[k] = max(s.panics[k], qr.Panics, s.policy.MaxPanics)
	}
	return replayed, nil
}

// RecordPanic counts one panic for the pair and reports whether this very
// record pushed it to MaxPanics, so the caller can take the one-time
// enforcement action (latch the pair's breaker stuck-open). Later panics
// of the same pair return false.
func (s *Supervisor) RecordPanic(kernel, isa string, value any) bool {
	s.mu.Lock()
	k := key(kernel, isa)
	s.panics[k]++
	n := s.panics[k]
	newly := n == s.policy.MaxPanics
	var rec QuarantineRecord
	if newly {
		rec = QuarantineRecord{
			Kernel: kernel, ISA: isa, Panics: n,
			Reason:   fmt.Sprintf("panic: %v", value),
			UnixNano: s.clock().UnixNano(),
		}
	}
	j := s.journal
	reg := s.reg
	s.mu.Unlock()

	if reg != nil {
		lk, li := obs.L("kernel", kernel), obs.L("isa", isa)
		reg.Counter("worker_panics_total", lk, li).Inc()
		reg.Emit("supervisor.panic", map[string]any{
			"kernel": kernel, "isa": isa, "count": n,
			"panic": fmt.Sprint(value), "quarantined": n >= s.policy.MaxPanics,
		})
		if newly {
			reg.Counter("quarantine_total", lk, li).Inc()
			reg.Emit("supervisor.quarantine", map[string]any{
				"kernel": kernel, "isa": isa, "panics": n, "reason": rec.Reason,
			})
		}
	}
	if newly && j != nil {
		if err := j.Append(rec); err != nil && reg != nil {
			reg.Emit("supervisor.journal_error", map[string]any{"error": err.Error()})
		}
	}
	return newly
}
