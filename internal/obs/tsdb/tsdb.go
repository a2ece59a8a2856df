// Package tsdb is an in-process time-series store over an obs.Registry:
// a fixed-size ring of clock-stamped structured samples, fed by a periodic
// sampler, serving windowed rollups — counter rates and histogram-derived
// quantiles — without any external dependency.
//
// The paper's artifact model (PR 2) is per-run: one registry, one export,
// one table. A serving process needs the same quantities *over time*:
// requests per second by kernel, p99 latency over the last minute, burn
// rate against an error budget. The store closes that gap with the
// smallest machinery that is still correct: every sample is a full
// obs.Sample (monotone series, gauges, per-bucket histogram state), and a
// rollup is the pure function of two samples — Snapshot.Delta over the
// monotone series for rates, bucket-count deltas fed through the standard
// histogram-quantile interpolation for percentiles. Nothing is
// incremental, so a rollup can never drift from the registry: drop the
// ring and the next two samples rebuild the same answers.
//
// Determinism: samples are stamped with the registry clock (obs.SetClock),
// so a test that injects a clock and calls Sample directly gets exactly
// reproducible rollups; the background ticker is only a convenience for
// production use.
package tsdb

import (
	"sort"
	"sync"
	"time"

	"simdstudy/internal/obs"
)

// Config sizes a Store.
type Config struct {
	// Interval is the background sampling cadence of Start. Default 1s.
	Interval time.Duration
	// Capacity is how many samples the ring holds. Default 300 — five
	// minutes of history at the default cadence, a few hundred kilobytes
	// for a serving registry's series count.
	Capacity int
	// Runtime, when true, scrapes Go runtime health (goroutines, heap, GC
	// pauses) into the registry immediately before every sample, so the
	// ring carries process health alongside the kernel metrics.
	Runtime bool
}

func (c Config) normalized() Config {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Capacity <= 0 {
		c.Capacity = 300
	}
	return c
}

// Store is the ring of samples plus the sampler. Safe for concurrent use.
type Store struct {
	cfg Config
	reg *obs.Registry
	rc  *obs.RuntimeCollector

	mu   sync.Mutex
	ring []obs.Sample
	head int // next write position
	n    int // live samples

	stopOnce sync.Once
	stopc    chan struct{}
	done     chan struct{}
}

// New builds a store over reg. Call Start for background sampling, or
// drive Sample directly (tests, scrape-coupled sampling).
func New(reg *obs.Registry, cfg Config) *Store {
	cfg = cfg.normalized()
	s := &Store{
		cfg:   cfg,
		reg:   reg,
		ring:  make([]obs.Sample, cfg.Capacity),
		stopc: make(chan struct{}),
		done:  make(chan struct{}),
	}
	if cfg.Runtime {
		s.rc = obs.NewRuntimeCollector(reg)
	}
	return s
}

// Sample takes one sample now (registry clock) and appends it to the ring,
// evicting the oldest when full. Returns the sample taken.
func (s *Store) Sample() obs.Sample {
	if s == nil || s.reg == nil {
		return obs.Sample{}
	}
	s.rc.Collect()
	sm := s.reg.Sample()
	s.mu.Lock()
	s.ring[s.head] = sm
	s.head = (s.head + 1) % len(s.ring)
	if s.n < len(s.ring) {
		s.n++
	}
	s.mu.Unlock()
	return sm
}

// Start launches the background sampler at the configured interval. Stop
// releases it; Start after Stop is not supported.
func (s *Store) Start() {
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.Sample()
			case <-s.stopc:
				return
			}
		}
	}()
}

// Stop halts the background sampler (idempotent; a never-Started store
// stops trivially).
func (s *Store) Stop() {
	if s == nil {
		return
	}
	s.stopOnce.Do(func() {
		close(s.stopc)
	})
}

// Len returns how many samples the ring currently holds.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// at returns the i-th newest sample (0 = newest). Caller holds s.mu.
func (s *Store) at(i int) obs.Sample {
	return s.ring[((s.head-1-i)%len(s.ring)+len(s.ring))%len(s.ring)]
}

// bounds returns the newest sample and the oldest sample still inside
// window (the sample closest to newest.Time-window without being older,
// falling back to the oldest held when the ring does not reach back that
// far). ok is false with fewer than two samples.
func (s *Store) bounds(window time.Duration) (oldest, newest obs.Sample, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n < 2 {
		return obs.Sample{}, obs.Sample{}, false
	}
	newest = s.at(0)
	cutoff := newest.Time.Add(-window)
	oldest = s.at(1)
	for i := 2; i < s.n; i++ {
		cand := s.at(i)
		if cand.Time.Before(cutoff) {
			break
		}
		oldest = cand
	}
	return oldest, newest, true
}

// Quantiles are the standard latency percentiles of one histogram window.
type Quantiles struct {
	P50, P95, P99 float64
}

// Rollup is the windowed view of the registry between two ring samples.
type Rollup struct {
	// Start and End are the sample timestamps the rollup spans; Window is
	// their difference (it can be shorter than asked if the ring is young).
	Start, End time.Time
	Window     time.Duration
	// Rates maps every monotone series (counters, histogram _count/_sum)
	// to its per-second rate over the window. Series that did not move are
	// present with rate 0.
	Rates map[string]float64
	// Deltas maps the same series to their raw advance over the window.
	Deltas obs.Snapshot
	// Quantiles maps each histogram series (rendered name{labels}) to
	// p50/p95/p99 derived from its bucket-count deltas over the window.
	// Histograms with no samples in the window are absent.
	Quantiles map[string]Quantiles
	// Gauges is the newest sample's gauge view, for completeness.
	Gauges obs.Snapshot
}

// Rollup computes the windowed rollup ending at the newest sample. ok is
// false when the ring holds fewer than two samples or the two chosen
// samples carry the same timestamp (an injected clock that never advanced).
func (s *Store) Rollup(window time.Duration) (Rollup, bool) {
	if s == nil {
		return Rollup{}, false
	}
	old, nw, ok := s.bounds(window)
	if !ok {
		return Rollup{}, false
	}
	dt := nw.Time.Sub(old.Time)
	if dt <= 0 {
		return Rollup{}, false
	}
	sec := dt.Seconds()
	deltas := nw.Counters.Delta(old.Counters)
	r := Rollup{
		Start:     old.Time,
		End:       nw.Time,
		Window:    dt,
		Rates:     make(map[string]float64, len(deltas)),
		Deltas:    deltas,
		Quantiles: make(map[string]Quantiles, len(nw.Hists)),
		Gauges:    nw.Gauges,
	}
	for k, d := range deltas {
		if d < 0 {
			// A monotone series can only go backward if the registry was
			// swapped out from under the store; surface a zero rate rather
			// than a negative one.
			d = 0
		}
		r.Rates[k] = d / sec
	}
	for k, hn := range nw.Hists {
		ho := old.Hists[k] // zero value = histogram born inside the window
		dc := bucketDelta(hn, ho)
		if dc == nil {
			continue
		}
		r.Quantiles[k] = Quantiles{
			P50: Quantile(0.50, hn.Bounds, dc),
			P95: Quantile(0.95, hn.Bounds, dc),
			P99: Quantile(0.99, hn.Bounds, dc),
		}
	}
	return r, true
}

// bucketDelta returns newer.Counts - older.Counts, or nil when the window
// saw no samples (or the bucket layouts differ, which means the histogram
// was re-created — treat as no data rather than inventing negatives).
func bucketDelta(newer, older obs.HistSample) []uint64 {
	if newer.Count == older.Count {
		return nil
	}
	if older.Counts == nil {
		out := make([]uint64, len(newer.Counts))
		copy(out, newer.Counts)
		return out
	}
	if len(older.Counts) != len(newer.Counts) {
		return nil
	}
	out := make([]uint64, len(newer.Counts))
	for i := range out {
		if newer.Counts[i] < older.Counts[i] {
			return nil
		}
		out[i] = newer.Counts[i] - older.Counts[i]
	}
	return out
}

// Quantile derives the q-quantile (0 < q < 1) from per-bucket counts over
// the given upper bounds (counts has one extra +Inf slot), using the same
// linear interpolation as Prometheus histogram_quantile: the rank is
// located in its bucket, then interpolated between the bucket's lower and
// upper bound assuming uniform distribution within the bucket. A rank in
// the +Inf bucket returns the highest finite bound (there is nothing to
// interpolate toward). Zero total returns 0.
func Quantile(q float64, bounds []float64, counts []uint64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, b := range bounds {
		prev := cum
		cum += float64(counts[i])
		if cum >= rank {
			lower := 0.0
			if i > 0 {
				lower = bounds[i-1]
			}
			if counts[i] == 0 {
				return b
			}
			return lower + (b-lower)*(rank-prev)/float64(counts[i])
		}
	}
	return bounds[len(bounds)-1]
}

// SeriesMatching returns the rollup's rate series whose name starts with
// prefix, sorted by series key — a convenience for building per-label
// views (per-kernel QPS) without re-parsing the registry.
func (r Rollup) SeriesMatching(prefix string) []string {
	var out []string
	for k := range r.Rates {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
