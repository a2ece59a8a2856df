package resilience

import (
	"fmt"
	"sync"
	"time"

	"simdstudy/internal/obs"
)

// State is a circuit breaker's position.
type State int

// Breaker states. The happy path is Closed; repeated guard fallbacks open
// the breaker (SIMD demoted to scalar); after a cooldown the breaker goes
// half-open and admits a bounded number of probe calls; clean probes close
// it again. StuckOpen is the terminal state after the configured number of
// failed re-arm cycles — the breaker-layer replacement for the old
// setUseOptimized(false) kill-switch, except it is reached by policy, not
// by the third fallback ever seen, and demotes only its own pair.
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

// BreakerConfig tunes a Breaker. The zero value selects the defaults noted
// per field.
type BreakerConfig struct {
	// Window is how many recent outcomes the failure rate is computed
	// over (a sliding ring). Default 16.
	Window int
	// WindowAge, when positive, additionally expires outcomes older than
	// this from the window, so a burst of ancient failures cannot trip a
	// breaker that has been idle. Zero disables age-based expiry.
	WindowAge time.Duration
	// MinSamples is the minimum number of live outcomes in the window
	// before the breaker may trip. Default 4.
	MinSamples int
	// FailureRate opens the breaker when failures/samples reaches this
	// fraction. Default 0.5.
	FailureRate float64
	// OpenFor is the cooldown an open breaker waits before going
	// half-open. Default 5s.
	OpenFor time.Duration
	// ProbeBudget is the maximum number of outstanding half-open probe
	// calls. Default 1.
	ProbeBudget int
	// ProbeSuccesses is how many clean probes close a half-open breaker.
	// Default 1.
	ProbeSuccesses int
	// GiveUpAfter, when positive, is how many consecutive open trips the
	// breaker tolerates without managing to close; the next trip latches
	// StuckOpen — the terminal action, recorded by cv as a kill-switch
	// fault for that pair alone.
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
	if c.ProbeBudget <= 0 {
		c.ProbeBudget = 1
	}
	if c.ProbeSuccesses <= 0 {
		c.ProbeSuccesses = 1
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// outcome is one recorded guard verdict in the sliding window.
type outcome struct {
	at time.Time
	ok bool
}

// Breaker is one per-(kernel, ISA) circuit breaker. All methods are safe
// for concurrent use.
type Breaker struct {
	mu     sync.Mutex
	cfg    BreakerConfig
	kernel string
	isa    string

	state    State
	ring     []outcome
	next     int // ring write cursor
	filled   int // live entries in ring
	openedAt time.Time
	opens    int // consecutive open transitions without a close
	probes   int // outstanding half-open probes
	probeOK  int // clean probes this half-open cycle

	reg      *obs.Registry
	openSpan *obs.Span // measures the outage from first open to close
}

// NewBreaker builds a breaker for one (kernel, isa) pair, reporting into
// reg (which may be nil).
func NewBreaker(kernel, isa string, cfg BreakerConfig, reg *obs.Registry) *Breaker {
	c := cfg.normalized()
	b := &Breaker{cfg: c, kernel: kernel, isa: isa, ring: make([]outcome, c.Window), reg: reg}
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

// Allow reports whether the SIMD path may run. In the half-open state each
// positive answer consumes one probe from the budget; the caller must
// resolve it with Record.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpen()
	switch b.state {
	case StateClosed:
		return true
	case StateHalfOpen:
		if b.probes < b.cfg.ProbeBudget {
			b.probes++
			return true
		}
		return false
	default: // StateOpen, StateStuckOpen
		return false
	}
}

// Release returns an admitted-but-unresolved call's probe to the half-open
// budget. Callers that were cancelled (or failed validation) after Allow but
// before producing a verdict must call it, or the probe would stay consumed
// and the breaker could never leave half-open.
func (b *Breaker) Release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == StateHalfOpen && b.probes > 0 {
		b.probes--
	}
}

// Record feeds one guard verdict (success = the spot-check came back clean
// or a retry recovered; failure = scalar fallback) into the breaker and
// returns the resulting state.
func (b *Breaker) Record(success bool) State {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.Clock()
	switch b.state {
	case StateClosed:
		b.push(now, success)
		if b.tripped(now) {
			b.toOpen(now)
		}
	case StateHalfOpen:
		if b.probes > 0 {
			b.probes--
		}
		if success {
			b.probeOK++
			if b.probeOK >= b.cfg.ProbeSuccesses {
				b.transition(StateClosed, now)
			}
		} else {
			b.toOpen(now)
		}
	default:
		// A verdict from a call admitted before the trip landed late;
		// open and stuck-open states ignore it.
	}
	return b.state
}

// push appends an outcome to the sliding window. Callers hold mu.
func (b *Breaker) push(now time.Time, ok bool) {
	b.ring[b.next] = outcome{at: now, ok: ok}
	b.next = (b.next + 1) % len(b.ring)
	if b.filled < len(b.ring) {
		b.filled++
	}
}

// tripped reports whether the live window crosses the failure rate.
// Callers hold mu.
func (b *Breaker) tripped(now time.Time) bool {
	var samples, failures int
	for i := 0; i < b.filled; i++ {
		o := b.ring[(b.next-1-i+2*len(b.ring))%len(b.ring)]
		if b.cfg.WindowAge > 0 && now.Sub(o.at) > b.cfg.WindowAge {
			continue // expired
		}
		samples++
		if !o.ok {
			failures++
		}
	}
	return samples >= b.cfg.MinSamples &&
		float64(failures) >= b.cfg.FailureRate*float64(samples)
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
		b.transition(StateStuckOpen, now)
		return
	}
	b.transition(StateOpen, now)
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
		b.probes, b.probeOK = 0, 0
	case StateHalfOpen:
		b.probes, b.probeOK = 0, 0
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

// ForceStuckOpen latches the breaker terminally open regardless of its
// window state — the supervisor's quarantine enforcement. Unlike a trip
// reached through GiveUpAfter, it can land in any state; only a fresh
// breaker (process restart with a clean quarantine journal) re-arms the
// pair.
func (b *Breaker) ForceStuckOpen() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.transition(StateStuckOpen, b.cfg.Clock())
}

// BreakerSet is a lazily populated family of breakers keyed by
// (kernel, ISA), sharing one config and registry. It is what cv.Ops
// dispatch consults and what the serving front-end reports from /readyz.
type BreakerSet struct {
	mu      sync.Mutex
	cfg     BreakerConfig
	reg     *obs.Registry
	m       map[string]*Breaker
	onForce func(kernel, isa string)
}

// NewBreakerSet builds an empty set; reg may be nil.
func NewBreakerSet(cfg BreakerConfig, reg *obs.Registry) *BreakerSet {
	return &BreakerSet{cfg: cfg, reg: reg, m: map[string]*Breaker{}}
}

func (s *BreakerSet) key(kernel, isa string) string { return kernel + "/" + isa }

// For returns (creating on first use) the breaker for one pair.
func (s *BreakerSet) For(kernel, isa string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := s.key(kernel, isa)
	b, ok := s.m[k]
	if !ok {
		b = NewBreaker(kernel, isa, s.cfg, s.reg)
		s.m[k] = b
	}
	return b
}

// Allow is For(kernel, isa).Allow().
func (s *BreakerSet) Allow(kernel, isa string) bool { return s.For(kernel, isa).Allow() }

// Record is For(kernel, isa).Record(success).
func (s *BreakerSet) Record(kernel, isa string, success bool) State {
	return s.For(kernel, isa).Record(success)
}

// Release is For(kernel, isa).Release().
func (s *BreakerSet) Release(kernel, isa string) { s.For(kernel, isa).Release() }

// State is For(kernel, isa).State().
func (s *BreakerSet) State(kernel, isa string) State { return s.For(kernel, isa).State() }

// ForceStuckOpen is For(kernel, isa).ForceStuckOpen(), then fires the
// OnForceStuckOpen hook. Every quarantine path in the tree — integrity
// scoreboard trips, panic-quarantine enforcement, journal replay — lands
// here, so the hook is the one place to observe "this pair is terminally
// demoted".
func (s *BreakerSet) ForceStuckOpen(kernel, isa string) {
	s.For(kernel, isa).ForceStuckOpen()
	s.mu.Lock()
	fn := s.onForce
	s.mu.Unlock()
	if fn != nil {
		fn(kernel, isa)
	}
}

// OnForceStuckOpen registers fn to run after every set-level
// ForceStuckOpen. The result-memoization layer hangs cache invalidation
// off it: a (kernel, ISA) pair caught corrupting must not keep serving
// its cached history. fn must not call back into the set's ForceStuckOpen.
func (s *BreakerSet) OnForceStuckOpen(fn func(kernel, isa string)) {
	s.mu.Lock()
	s.onForce = fn
	s.mu.Unlock()
}

// Snapshot returns every breaker's state keyed "kernel/isa", for readiness
// endpoints and logs. Iteration order of the returned map is undefined.
func (s *BreakerSet) Snapshot() map[string]State {
	s.mu.Lock()
	breakers := make(map[string]*Breaker, len(s.m))
	for k, b := range s.m {
		breakers[k] = b
	}
	s.mu.Unlock()
	out := make(map[string]State, len(breakers))
	for k, b := range breakers {
		out[k] = b.State()
	}
	return out
}
