// Package super is the supervision layer above the kernel library's
// parallel bands and the serving front-end's workers: a heartbeat watchdog
// that detects wedged bands and cancels their siblings (watchdog.go), and a
// panic supervisor that promotes "rethrow the lowest band panic" into a
// policy — a (kernel, ISA) pair that panics repeatedly is quarantined to
// the scalar, serial path and its circuit breaker is latched terminally
// open, with the quarantine decision journaled (internal/checkpoint) so a
// restarted process does not re-probe a known-poisonous path.
//
// The split of responsibilities with internal/resilience: breakers answer
// "should this call use SIMD right now?" from guard verdicts; the
// supervisor answers "should this pair ever run SIMD again in this
// process?" from crashes and stalls — and enforces its answer through the
// breaker's terminal StuckOpen state.
package super

import (
	"encoding/json"
	"fmt"
	"sort"
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

// Supervisor tracks panics per (kernel, ISA) pair and quarantines repeat
// offenders. All methods are safe for concurrent use.
type Supervisor struct {
	mu      sync.Mutex
	policy  QuarantinePolicy
	reg     *obs.Registry
	panics  map[string]int
	q       map[string]QuarantineRecord
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
		q:      map[string]QuarantineRecord{},
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
// records are replayed into the quarantine set (so a restarted process
// keeps its quarantines) and future quarantine decisions are appended to
// it. It returns the replayed records so the caller can mirror them into
// other subsystems (the serving layer latches the matching breakers
// stuck-open).
func (s *Supervisor) AttachJournal(j *checkpoint.Journal) ([]QuarantineRecord, error) {
	replayed := make([]QuarantineRecord, 0, j.Len())
	for _, rec := range j.Records() {
		var qr QuarantineRecord
		if err := checkpointUnmarshal(rec, &qr); err != nil {
			return nil, fmt.Errorf("super: quarantine journal record %d: %w", rec.Seq, err)
		}
		replayed = append(replayed, qr)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = j
	for _, qr := range replayed {
		k := key(qr.Kernel, qr.ISA)
		if _, ok := s.q[k]; ok {
			continue
		}
		s.q[k] = qr
		if s.panics[k] < qr.Panics {
			s.panics[k] = qr.Panics
		}
		s.gaugeLocked(qr.Kernel, qr.ISA)
	}
	return replayed, nil
}

func checkpointUnmarshal(rec checkpoint.Record, v any) error {
	return json.Unmarshal(rec.Data, v)
}

// RecordPanic counts one panic for the pair and reports whether this very
// record pushed it into quarantine (so the caller can take the one-time
// enforcement action, e.g. latch the breaker stuck-open). Already-
// quarantined pairs return false.
func (s *Supervisor) RecordPanic(kernel, isa string, value any) bool {
	s.mu.Lock()
	k := key(kernel, isa)
	s.panics[k]++
	n := s.panics[k]
	_, already := s.q[k]
	newly := !already && n >= s.policy.MaxPanics
	var rec QuarantineRecord
	if newly {
		rec = QuarantineRecord{
			Kernel: kernel, ISA: isa, Panics: n,
			Reason:   fmt.Sprintf("panic: %v", value),
			UnixNano: s.clock().UnixNano(),
		}
		s.q[k] = rec
	}
	j := s.journal
	reg := s.reg
	if reg != nil {
		s.gaugeLocked(kernel, isa)
	}
	s.mu.Unlock()

	if reg != nil {
		lk, li := obs.L("kernel", kernel), obs.L("isa", isa)
		reg.Counter("worker_panics_total", lk, li).Inc()
		reg.Emit("supervisor.panic", map[string]any{
			"kernel": kernel, "isa": isa, "count": n,
			"panic": fmt.Sprint(value), "quarantined": newly || already,
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

// gaugeLocked publishes the pair's quarantine flag. Callers hold mu.
func (s *Supervisor) gaugeLocked(kernel, isa string) {
	if s.reg == nil {
		return
	}
	v := 0.0
	if _, ok := s.q[key(kernel, isa)]; ok {
		v = 1.0
	}
	s.reg.Gauge("quarantined", obs.L("kernel", kernel), obs.L("isa", isa)).Set(v)
}

// Quarantined reports whether the pair is quarantined.
func (s *Supervisor) Quarantined(kernel, isa string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.q[key(kernel, isa)]
	return ok
}

// Quarantines returns every quarantine decision, sorted by (kernel, ISA),
// for the /livez view and logs.
func (s *Supervisor) Quarantines() []QuarantineRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]QuarantineRecord, 0, len(s.q))
	for _, rec := range s.q {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kernel != out[j].Kernel {
			return out[i].Kernel < out[j].Kernel
		}
		return out[i].ISA < out[j].ISA
	})
	return out
}
