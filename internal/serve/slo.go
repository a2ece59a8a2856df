package serve

import (
	"sync"
	"time"

	"simdstudy/internal/obs"
)

// SLOConfig declares the serving objectives the front-end tracks burn
// rates against. The zero value selects the noted defaults; Disabled
// turns SLO tracking off entirely.
type SLOConfig struct {
	// Disabled turns SLO tracking off (no gauges, no ring).
	Disabled bool
	// LatencyObjective is the per-request latency threshold: a /process
	// request slower than this (measured from admission attempt to
	// response, queue wait included) is latency-bad. Default 250ms.
	LatencyObjective time.Duration
	// LatencyTarget is the fraction of requests that must meet the
	// latency objective. Default 0.99 (a 1% latency budget).
	LatencyTarget float64
	// AvailabilityTarget is the fraction of requests that must succeed.
	// Shed requests (429) and server errors (5xx) spend availability
	// budget — a shed request is a correct server decision but still a
	// client that got no image back. Default 0.999.
	AvailabilityTarget float64
}

// sloWindows are the burn-rate windows exported per objective, shortest
// first: the short window catches a fast burn, the long one confirms it is
// sustained (multi-window alerting).
var sloWindows = [...]time.Duration{time.Minute, 5 * time.Minute}

func (c SLOConfig) normalized() SLOConfig {
	if c.LatencyObjective <= 0 {
		c.LatencyObjective = 250 * time.Millisecond
	}
	if c.LatencyTarget <= 0 || c.LatencyTarget >= 1 {
		c.LatencyTarget = 0.99
	}
	if c.AvailabilityTarget <= 0 || c.AvailabilityTarget >= 1 {
		c.AvailabilityTarget = 0.999
	}
	return c
}

// sloPoint is one cumulative tally snapshot in the tracker's ring.
type sloPoint struct {
	t          time.Time
	total      uint64
	latencyBad uint64
	availBad   uint64
}

// sloTracker turns the stream of per-request verdicts into burn-rate
// gauges. It keeps cumulative tallies plus a ring of timestamped
// snapshots (one per second of traffic at most), so burn over a window is
// the pure delta between two snapshots — the same rollup-from-deltas
// discipline the tsdb store uses, small enough to sit on the request path.
//
// Burn rate is the SRE textbook quantity: the observed bad fraction over
// the window divided by the budget fraction (1 - target). Burn 1.0 means
// spending the error budget exactly as fast as it refills; burn >= 2 on a
// short window is the classic page-worthy signal.
type sloTracker struct {
	cfg   SLOConfig
	clock func() time.Time

	mu   sync.Mutex
	cur  sloPoint
	ring []sloPoint
	head int
	n    int
}

// newSLOTracker sizes the ring to cover the longest window at 1 Hz and
// seeds it with the zero point, so a process younger than its windows
// burns against true zero instead of losing the first request to the
// baseline snapshot.
func newSLOTracker(cfg SLOConfig, clock func() time.Time) *sloTracker {
	cfg = cfg.normalized()
	cap := int(sloWindows[len(sloWindows)-1]/time.Second) + 2
	t := &sloTracker{cfg: cfg, clock: clock, ring: make([]sloPoint, cap)}
	t.ring[0] = sloPoint{t: clock()}
	t.head, t.n = 1, 1
	return t
}

// record tallies one finished /process request: its response code and its
// latency measured queue-inclusive. 429 and 5xx spend availability
// budget; anything slower than the latency objective spends latency
// budget (a shed request has no meaningful latency and is not counted
// against the latency objective — its budget is the availability one).
func (t *sloTracker) record(code int, elapsed time.Duration) {
	if t == nil {
		return
	}
	now := t.clock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur.total++
	shed := code == 429
	if shed || code >= 500 {
		t.cur.availBad++
	}
	if !shed && elapsed > t.cfg.LatencyObjective {
		t.cur.latencyBad++
	}
	t.cur.t = now
	// Snapshot at most once per second: the newest ring entry is always
	// at least a second older than cur, bounding ring churn under load.
	newest := t.ring[((t.head-1)%len(t.ring)+len(t.ring))%len(t.ring)]
	if t.n == 0 || now.Sub(newest.t) >= time.Second {
		t.ring[t.head] = t.cur
		t.head = (t.head + 1) % len(t.ring)
		if t.n < len(t.ring) {
			t.n++
		}
	}
}

// at returns the i-th newest snapshot (0 = newest). Caller holds t.mu.
func (t *sloTracker) at(i int) sloPoint {
	return t.ring[((t.head-1-i)%len(t.ring)+len(t.ring))%len(t.ring)]
}

// sloBurn is the burn state of both objectives over one window.
type sloBurn struct {
	Window       time.Duration
	Latency      float64
	Availability float64
	Requests     uint64
}

// burnRates computes the burn rate of both objectives over every window
// in sloWindows, ending now. A window with no traffic burns 0.
func (t *sloTracker) burnRates() []sloBurn {
	if t == nil {
		return nil
	}
	now := t.clock()
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]sloBurn, 0, len(sloWindows))
	for _, w := range sloWindows {
		cutoff := now.Add(-w)
		if !t.cur.t.After(cutoff) {
			// The last recorded request predates the whole window: no
			// traffic, no burn. (Without this, the up-to-a-second of
			// requests newer than the newest snapshot would linger in every
			// window forever once traffic stops.)
			out = append(out, sloBurn{Window: w})
			continue
		}
		// The baseline is the newest snapshot at or before the cutoff (the
		// tightest tally outside the window). If the ring does not reach
		// back that far, the oldest snapshot held stands in — which is the
		// zero point seeded at construction until the ring wraps.
		var base sloPoint
		for i := 0; i < t.n; i++ {
			cand := t.at(i)
			base = cand
			if !cand.t.After(cutoff) {
				break
			}
		}
		total := t.cur.total - base.total
		b := sloBurn{Window: w, Requests: total}
		if total > 0 {
			latBad := float64(t.cur.latencyBad-base.latencyBad) / float64(total)
			avBad := float64(t.cur.availBad-base.availBad) / float64(total)
			b.Latency = latBad / (1 - t.cfg.LatencyTarget)
			b.Availability = avBad / (1 - t.cfg.AvailabilityTarget)
		}
		out = append(out, b)
	}
	return out
}

// publish refreshes the slo_* gauges in reg from the current ring state;
// the server calls it on every /metrics scrape and stream frame so the
// exported burn is never stale, and computing on scrape keeps the request
// path free of gauge writes.
func (t *sloTracker) publish(reg *obs.Registry) {
	if t == nil {
		return
	}
	for _, b := range t.burnRates() {
		w := b.Window.String()
		reg.Gauge("slo_burn_rate",
			obs.L("slo", "latency"), obs.L("window", w)).Set(b.Latency)
		reg.Gauge("slo_burn_rate",
			obs.L("slo", "availability"), obs.L("window", w)).Set(b.Availability)
		reg.Gauge("slo_window_requests", obs.L("window", w)).Set(float64(b.Requests))
	}
	reg.Gauge("slo_latency_objective_seconds").Set(t.cfg.LatencyObjective.Seconds())
}
