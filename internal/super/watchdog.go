package super

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"simdstudy/internal/obs"
)

// StallError reports a parallel section (or serial watched loop) whose band
// stopped making row progress for longer than the watchdog deadline. The
// kernel library converts it into the error return of the stalled entry
// point and feeds it to the pair's circuit breaker as a failure, so
// repeated stalls demote the pair to scalar exactly like repeated guard
// fallbacks.
type StallError struct {
	// Op is the kernel entry point that stalled, e.g. "GaussianBlur".
	Op string
	// ISA is the instruction set the stalled section was running.
	ISA string
	// Band is the index of the band whose heartbeat went silent.
	Band int
	// LastBeat is when that band last reported progress.
	LastBeat time.Time
	// Deadline is the heartbeat silence that counts as a stall.
	Deadline time.Duration
}

// Error implements error.
func (e *StallError) Error() string {
	return fmt.Sprintf("super: %s [%s] stalled: band %d silent since %s (deadline %s)",
		e.Op, e.ISA, e.Band, e.LastBeat.Format(time.RFC3339Nano), e.Deadline)
}

// WatchdogConfig tunes a Watchdog. The zero value selects the defaults
// noted per field.
type WatchdogConfig struct {
	// Deadline is how long a band's heartbeat may stay silent before the
	// section is declared stalled. Default 1s.
	Deadline time.Duration
}

func (c WatchdogConfig) normalized() WatchdogConfig {
	if c.Deadline <= 0 {
		c.Deadline = time.Second
	}
	return c
}

// poll is the monitor's scan interval: Deadline/8, clamped to [1ms, 250ms].
func (c WatchdogConfig) poll() time.Duration {
	return min(max(c.Deadline/8, time.Millisecond), 250*time.Millisecond)
}

// Heart is one band's heartbeat slot. Beat is called from the band's row
// loop (cv's tick), so it must stay a single atomic store.
type Heart struct {
	last atomic.Int64 // unix nanos of the latest beat
}

// Beat records progress now.
func (h *Heart) Beat() { h.last.Store(time.Now().UnixNano()) }

// LastBeat returns the time of the latest beat (section registration time
// if the band never beat).
func (h *Heart) LastBeat() time.Time { return time.Unix(0, h.last.Load()) }

// Section is one watched unit of work: a kernel's parallel pass (one heart
// per band) or a serving request (one heart). Sections register with the
// watchdog at creation and must be Closed when the work completes, stalled
// or not.
type Section struct {
	w       *Watchdog
	op, isa string
	started time.Time
	hearts  []Heart
	onStall func()
	stalled atomic.Pointer[StallError]
}

// Heart returns band i's heartbeat slot.
func (s *Section) Heart(i int) *Heart { return &s.hearts[i] }

// Stalled returns the section's stall verdict, or nil.
func (s *Section) Stalled() *StallError { return s.stalled.Load() }

// Close unregisters the section from the watchdog.
func (s *Section) Close() {
	s.w.mu.Lock()
	delete(s.w.secs, s)
	s.w.mu.Unlock()
}

// markStalled records the stall verdict (first band wins) and fires the
// section's cancellation callback. The verdict is published before the
// callback runs, so siblings that unwind on the stop flag always observe a
// non-nil Stalled().
func (s *Section) markStalled(e *StallError) {
	if !s.stalled.CompareAndSwap(nil, e) {
		return
	}
	if s.onStall != nil {
		s.onStall()
	}
	s.w.stalls.Add(1)
	if s.w.reg != nil {
		s.w.reg.Counter("stall_total",
			obs.L("kernel", s.op), obs.L("isa", s.isa)).Inc()
		s.w.reg.Emit("watchdog.stall", map[string]any{
			"kernel": s.op, "isa": s.isa, "band": e.Band,
			"silent_for": time.Since(e.LastBeat).String(),
			"deadline":   e.Deadline.String(),
		})
	}
}

// SectionStatus is one live section's view for /livez and logs.
type SectionStatus struct {
	Op      string        `json:"op"`
	ISA     string        `json:"isa"`
	Bands   int           `json:"bands"`
	Age     time.Duration `json:"age_ns"`
	Oldest  time.Duration `json:"oldest_beat_age_ns"`
	Stalled *StallError   `json:"stalled,omitempty"`
}

// Watchdog owns the heartbeat registry and the background monitor that
// scans it. One watchdog serves many sections (all kernels of an Ops, all
// requests of a server).
type Watchdog struct {
	cfg    WatchdogConfig
	reg    *obs.Registry
	mu     sync.Mutex
	secs   map[*Section]struct{}
	stop   chan struct{}
	once   sync.Once
	stalls atomic.Uint64
}

// NewWatchdog builds a watchdog and starts its monitor goroutine; Stop it
// when done. reg may be nil.
func NewWatchdog(cfg WatchdogConfig, reg *obs.Registry) *Watchdog {
	w := &Watchdog{
		cfg:  cfg.normalized(),
		reg:  reg,
		secs: map[*Section]struct{}{},
		stop: make(chan struct{}),
	}
	go w.monitor()
	return w
}

// Stop terminates the monitor goroutine. Live sections keep their hearts
// (Beat stays valid) but no further stalls are declared.
func (w *Watchdog) Stop() {
	w.once.Do(func() { close(w.stop) })
}

// Deadline returns the configured heartbeat deadline.
func (w *Watchdog) Deadline() time.Duration { return w.cfg.Deadline }

// Stalls returns how many stalls this watchdog has declared.
func (w *Watchdog) Stalls() uint64 { return w.stalls.Load() }

// Section registers a watched unit of work with bands heartbeat slots, all
// initialized to now. onStall, which may be nil, runs once if the section
// stalls — the kernel library points it at the parallel section's stop
// flag, the serving layer at the request's cancel.
func (w *Watchdog) Section(op, isa string, bands int, onStall func()) *Section {
	now := time.Now()
	s := &Section{w: w, op: op, isa: isa, started: now, hearts: make([]Heart, bands), onStall: onStall}
	for i := range s.hearts {
		s.hearts[i].last.Store(now.UnixNano())
	}
	w.mu.Lock()
	w.secs[s] = struct{}{}
	w.mu.Unlock()
	return s
}

// monitor scans every poll interval until Stop.
func (w *Watchdog) monitor() {
	t := time.NewTicker(w.cfg.poll())
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case now := <-t.C:
			w.Check(now)
		}
	}
}

// Check runs one scan at the given instant, declaring a stall for every
// live, not-yet-stalled section with a band silent past the deadline. It is
// what the monitor calls on each tick; tests call it directly with a
// crafted clock for deterministic verdicts.
func (w *Watchdog) Check(now time.Time) {
	w.mu.Lock()
	secs := make([]*Section, 0, len(w.secs))
	for s := range w.secs {
		secs = append(secs, s)
	}
	w.mu.Unlock()
	for _, s := range secs {
		if s.stalled.Load() != nil {
			continue
		}
		for i := range s.hearts {
			last := s.hearts[i].LastBeat()
			if now.Sub(last) > w.cfg.Deadline {
				s.markStalled(&StallError{
					Op: s.op, ISA: s.isa, Band: i, LastBeat: last, Deadline: w.cfg.Deadline,
				})
				break
			}
		}
	}
}

// Snapshot returns the live sections' status for /livez.
func (w *Watchdog) Snapshot(now time.Time) []SectionStatus {
	w.mu.Lock()
	secs := make([]*Section, 0, len(w.secs))
	for s := range w.secs {
		secs = append(secs, s)
	}
	w.mu.Unlock()
	out := make([]SectionStatus, 0, len(secs))
	for _, s := range secs {
		st := SectionStatus{
			Op: s.op, ISA: s.isa, Bands: len(s.hearts),
			Age: now.Sub(s.started), Stalled: s.Stalled(),
		}
		for i := range s.hearts {
			if age := now.Sub(s.hearts[i].LastBeat()); age > st.Oldest {
				st.Oldest = age
			}
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Op != out[j].Op {
			return out[i].Op < out[j].Op
		}
		return out[i].ISA < out[j].ISA
	})
	return out
}
