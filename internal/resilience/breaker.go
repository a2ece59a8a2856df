package resilience

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"simdstudy/internal/obs"
)

// State is a circuit breaker's position.
type State int

// Breaker states. The happy path is Closed; repeated guard fallbacks open
// the breaker (SIMD demoted to scalar); after a cooldown the breaker goes
// half-open and admits one probe call at a time; a clean probe closes it
// again. StuckOpen is the terminal state, the quarantine: reached after
// the configured number of failed re-arm cycles or forced by
// BreakerSet.Quarantine, it demotes only its own pair, and the Reason it
// latched for says which route got it there.
const (
	StateClosed State = iota
	StateOpen
	StateHalfOpen
	StateStuckOpen
)

var stateNames = [...]string{"closed", "open", "half-open", "stuck-open"}

// String names the state.
func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("state(%d)", int(s))
	}
	return stateNames[s]
}

// Reason names why a breaker latched StuckOpen.
type Reason string

// Quarantine reasons: panic and corruption arrive through
// BreakerSet.Quarantine, give-up is the breaker's own GiveUpAfter latch.
const (
	ReasonPanic      Reason = "panic"
	ReasonCorruption Reason = "corruption"
	ReasonGiveUp     Reason = "give-up"
)

// BreakerConfig tunes a Breaker. The zero value selects the defaults noted
// per field.
type BreakerConfig struct {
	// Window is how many recent outcomes the failure rate is computed
	// over (a sliding ring). Default 16.
	Window int
	// MinSamples is the minimum number of outcomes in the window
	// before the breaker may trip. Default 4.
	MinSamples int
	// FailureRate opens the breaker when failures/samples reaches this
	// fraction. Default 0.5.
	FailureRate float64
	// OpenFor is the cooldown an open breaker waits before going
	// half-open. Default 5s.
	OpenFor time.Duration
	// GiveUpAfter, when positive, is how many consecutive open trips the
	// breaker tolerates without managing to close; the next trip latches
	// StuckOpen with ReasonGiveUp — the terminal action, recorded by cv as
	// a kill-switch fault for that pair alone.
	// Zero means the breaker re-arms forever.
	GiveUpAfter int
	// Clock is the time source; nil means time.Now. Tests and the
	// integration harness inject a manual clock for deterministic
	// cooldown expiry.
	Clock func() time.Time
}

func (c BreakerConfig) normalized() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 4
	}
	if c.FailureRate <= 0 {
		c.FailureRate = 0.5
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 5 * time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Breaker is one per-(kernel, ISA) circuit breaker. All methods are safe
// for concurrent use.
type Breaker struct {
	mu     sync.Mutex
	cfg    BreakerConfig
	kernel string
	isa    string

	state    State
	ring     []bool // recent verdicts, true = clean; ring[:filled] are live
	next     int    // ring write cursor
	filled   int    // live entries in ring
	openedAt time.Time
	opens    int       // consecutive open transitions without a close
	probing  bool      // a half-open probe is outstanding
	why      Reason    // why the breaker latched StuckOpen
	since    time.Time // when it latched

	reg      *obs.Registry
	openSpan *obs.Span // measures the outage from first open to close
}

// NewBreaker builds a breaker for one (kernel, isa) pair, reporting into
// reg (which may be nil).
func NewBreaker(kernel, isa string, cfg BreakerConfig, reg *obs.Registry) *Breaker {
	c := cfg.normalized()
	b := &Breaker{cfg: c, kernel: kernel, isa: isa, ring: make([]bool, c.Window), reg: reg}
	b.setStateGauge()
	return b
}

// State returns the current state, applying cooldown expiry first so an
// open breaker whose cooldown has lapsed reports half-open.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpen()
	return b.state
}

// admit is BreakerSet.Admit for this breaker.
func (b *Breaker) admit(probe bool) (allowed bool, why Reason) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !probe {
		return b.state != StateStuckOpen, b.why
	}
	b.maybeHalfOpen()
	switch b.state {
	case StateClosed:
		allowed = true
	case StateHalfOpen:
		// One probe at a time; the caller must resolve it with a verdict
		// or a Release.
		allowed = !b.probing
		b.probing = true
	}
	return allowed, b.why
}

// record feeds one guard verdict (success = the spot-check came back clean
// or a retry recovered; failure = scalar fallback) into the breaker and
// returns the resulting state, and whether this verdict latched StuckOpen
// through GiveUpAfter.
func (b *Breaker) record(success bool) (st State, latched bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		b.push(success)
		if b.tripped() {
			b.toOpen(b.cfg.Clock())
		}
	case StateHalfOpen:
		b.probing = false
		if success {
			b.transition(StateClosed, b.cfg.Clock())
		} else {
			b.toOpen(b.cfg.Clock())
		}
	default:
		// A verdict from a call admitted before the trip landed late;
		// open and stuck-open states ignore it.
		return b.state, false
	}
	return b.state, b.state == StateStuckOpen
}

// push appends a verdict to the sliding window. Callers hold mu.
func (b *Breaker) push(ok bool) {
	b.ring[b.next] = ok
	b.next = (b.next + 1) % len(b.ring)
	if b.filled < len(b.ring) {
		b.filled++
	}
}

// tripped reports whether the window crosses the failure rate. The ring
// fills from index 0 after every reset, so ring[:filled] is the window.
// Callers hold mu.
func (b *Breaker) tripped() bool {
	failures := 0
	for _, ok := range b.ring[:b.filled] {
		if !ok {
			failures++
		}
	}
	return b.filled >= b.cfg.MinSamples &&
		float64(failures) >= b.cfg.FailureRate*float64(b.filled)
}

// maybeHalfOpen promotes an open breaker whose cooldown has lapsed.
// Callers hold mu.
func (b *Breaker) maybeHalfOpen() {
	if b.state == StateOpen {
		if now := b.cfg.Clock(); now.Sub(b.openedAt) >= b.cfg.OpenFor {
			b.transition(StateHalfOpen, now)
		}
	}
}

// toOpen handles both the closed->open trip and a failed half-open probe,
// latching StuckOpen once the re-arm budget is spent. Callers hold mu.
func (b *Breaker) toOpen(now time.Time) {
	b.opens++
	if b.cfg.GiveUpAfter > 0 && b.opens > b.cfg.GiveUpAfter {
		b.latch(ReasonGiveUp, now)
		return
	}
	b.transition(StateOpen, now)
}

// latch moves the breaker terminally to StuckOpen for why, reporting
// whether this call latched it: a breaker already stuck-open keeps its
// first reason. Callers hold mu.
func (b *Breaker) latch(why Reason, now time.Time) bool {
	if b.state == StateStuckOpen {
		return false
	}
	b.why, b.since = why, now
	b.transition(StateStuckOpen, now)
	return true
}

// transition moves to a new state, resetting per-state bookkeeping and
// recording the observability trail: a transition counter, a state gauge,
// an event, and a "breaker.open" span covering each outage (first open to
// close or stuck-open). Callers hold mu.
func (b *Breaker) transition(to State, now time.Time) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	switch to {
	case StateOpen:
		b.openedAt = now
		b.probing = false
	case StateHalfOpen:
		b.probing = false
	case StateClosed:
		b.opens = 0
		b.filled, b.next = 0, 0
	}
	if b.reg != nil {
		lk, li := obs.L("kernel", b.kernel), obs.L("isa", b.isa)
		b.reg.Counter("breaker_transitions_total", lk, li,
			obs.L("from", from.String()), obs.L("to", to.String())).Inc()
		b.setStateGauge()
		b.reg.Emit("breaker.transition", map[string]any{
			"kernel": b.kernel, "isa": b.isa,
			"from": from.String(), "to": to.String(),
		})
		if from == StateClosed && b.openSpan == nil {
			b.openSpan = b.reg.StartSpan("breaker.open", lk, li)
		}
		if to == StateClosed || to == StateStuckOpen {
			if b.openSpan != nil {
				b.openSpan.SetAttr("resolution", to.String())
				b.openSpan.End()
				b.openSpan = nil
			}
		}
	}
}

// setStateGauge publishes the numeric state. Callers hold mu (or the
// breaker is not yet shared).
func (b *Breaker) setStateGauge() {
	if b.reg != nil {
		b.reg.Gauge("breaker_state",
			obs.L("kernel", b.kernel), obs.L("isa", b.isa)).Set(float64(b.state))
	}
}

// BreakerSet is a lazily populated family of breakers keyed by
// (kernel, ISA), sharing one config and registry. It is what cv.Ops
// dispatch consults, what the serving front-end reports from /readyz, and
// the one place a pair's quarantine lives (see the package comment).
type BreakerSet struct {
	mu      sync.Mutex
	cfg     BreakerConfig
	reg     *obs.Registry
	m       map[string]*Breaker
	onLatch atomic.Pointer[func(kernel, isa string)]
}

// NewBreakerSet builds an empty set; reg may be nil.
func NewBreakerSet(cfg BreakerConfig, reg *obs.Registry) *BreakerSet {
	return &BreakerSet{cfg: cfg, reg: reg, m: map[string]*Breaker{}}
}

func (s *BreakerSet) key(kernel, isa string) string { return kernel + "/" + isa }

// get returns the breaker for one pair, creating it on first use when
// create is set and returning nil for an unseen pair otherwise.
func (s *BreakerSet) get(kernel, isa string, create bool) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := s.key(kernel, isa)
	b, ok := s.m[k]
	if !ok && create {
		b = NewBreaker(kernel, isa, s.cfg, s.reg)
		s.m[k] = b
	}
	return b
}

// Admit is the one question an outermost kernel call asks: may the pair's
// SIMD path run, and, when the pair is stuck-open, why. With probe set,
// closed admits, open and stuck-open deny, and half-open admits one
// outstanding probe, to be resolved by a Record or a Release. Without it
// only the latch is read, creating no breaker.
func (s *BreakerSet) Admit(kernel, isa string, probe bool) (allowed bool, why Reason) {
	if b := s.get(kernel, isa, probe); b != nil {
		return b.admit(probe)
	}
	return true, ""
}

// Record feeds one verdict into the pair's breaker (see record), firing
// the OnQuarantine hook when it latches the pair through GiveUpAfter.
func (s *BreakerSet) Record(kernel, isa string, success bool) State {
	st, latched := s.get(kernel, isa, true).record(success)
	if latched {
		s.latched(kernel, isa)
	}
	return st
}

// Release frees an admitted-but-unresolved call's half-open probe slot.
// Callers that were cancelled (or failed validation) after a
// probing Admit but before producing a verdict must call it, or the probe
// would stay consumed and the breaker could never leave half-open.
func (s *BreakerSet) Release(kernel, isa string) {
	if b := s.get(kernel, isa, false); b != nil {
		b.mu.Lock()
		if b.state == StateHalfOpen {
			b.probing = false
		}
		b.mu.Unlock()
	}
}

// State reports the pair's state; a pair with no breaker yet is closed,
// and asking creates none.
func (s *BreakerSet) State(kernel, isa string) State {
	if b := s.get(kernel, isa, false); b != nil {
		return b.State()
	}
	return StateClosed
}

// Quarantine latches the pair stuck-open for why from any state, firing
// the OnQuarantine hook if this call latched it; a stuck-open pair keeps
// its first reason. Only a fresh set (a restart) re-arms the pair.
func (s *BreakerSet) Quarantine(kernel, isa string, why Reason) {
	b := s.get(kernel, isa, true)
	b.mu.Lock()
	latched := b.latch(why, b.cfg.Clock())
	b.mu.Unlock()
	if latched {
		s.latched(kernel, isa)
	}
}

// latched runs the OnQuarantine hook for a newly stuck-open pair.
func (s *BreakerSet) latched(kernel, isa string) {
	if fn := s.onLatch.Load(); fn != nil {
		(*fn)(kernel, isa)
	}
}

// OnQuarantine registers fn to run once for every pair that newly latches
// stuck-open, whatever the reason. The result-memoization layer hangs
// cache invalidation off it: a demoted (kernel, ISA) pair must not keep
// serving its cached history. fn must not call back into the set's
// Quarantine.
func (s *BreakerSet) OnQuarantine(fn func(kernel, isa string)) { s.onLatch.Store(&fn) }

// Quarantine is one stuck-open pair of the Quarantines view.
type Quarantine struct {
	Kernel   string `json:"kernel"`
	ISA      string `json:"isa"`
	Reason   Reason `json:"reason"`
	UnixNano int64  `json:"unix_nano"` // the latch time, by the breaker clock

}

// Quarantines lists every stuck-open pair, sorted by kernel then ISA: the
// one view /livez, /integrity and the telemetry stream read.
func (s *BreakerSet) Quarantines() []Quarantine {
	out := []Quarantine{}
	for _, b := range s.breakers() {
		b.mu.Lock()
		if b.state == StateStuckOpen {
			out = append(out, Quarantine{Kernel: b.kernel, ISA: b.isa, Reason: b.why, UnixNano: b.since.UnixNano()})
		}
		b.mu.Unlock()
	}
	return out
}

// breakers lists the set's breakers, sorted by kernel then ISA.
func (s *BreakerSet) breakers() []*Breaker {
	s.mu.Lock()
	out := make([]*Breaker, 0, len(s.m))
	for _, b := range s.m {
		out = append(out, b)
	}
	s.mu.Unlock()
	slices.SortFunc(out, func(a, b *Breaker) int {
		return cmp.Or(cmp.Compare(a.kernel, b.kernel), cmp.Compare(a.isa, b.isa))
	})
	return out
}

// Snapshot returns every breaker's state keyed "kernel/isa", for readiness
// endpoints and logs.
func (s *BreakerSet) Snapshot() map[string]State {
	out := map[string]State{}
	for _, b := range s.breakers() {
		out[s.key(b.kernel, b.isa)] = b.State()
	}
	return out
}
