package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// This file is the live-telemetry push side of the front-end: /metrics/stream
// serves Server-Sent Events, one JSON StreamFrame per interval, built from
// the time-series store's windowed rollups. It is the protocol cmd/simdtop
// renders; being SSE over plain JSON it is equally consumable with curl.
//
// Each frame forces a fresh sample into the ring first, so a stream works
// even on servers running without the background sampler (SampleInterval 0):
// the act of watching creates the history being watched.

// StreamFrame is one /metrics/stream event payload.
type StreamFrame struct {
	// Time is the frame's sample timestamp (registry clock), RFC3339Nano.
	Time string `json:"time"`
	// UptimeSec is seconds since the server was constructed.
	UptimeSec float64 `json:"uptime_sec"`
	// WindowSec is the rollup window the rates and quantiles span. It can
	// be shorter than requested while the ring is young, and zero (with
	// empty Kernels) before two samples exist.
	WindowSec float64 `json:"window_sec"`
	// Kernels holds per-kernel request throughput and latency quantiles
	// over the window, sorted by kernel name.
	Kernels []KernelStats `json:"kernels"`
	// SLO is the burn state per configured window; absent when SLO
	// tracking is disabled.
	SLO []SLOStatus `json:"slo,omitempty"`
	// Breakers maps "kernel/isa" to breaker state for every live breaker.
	Breakers map[string]string `json:"breakers,omitempty"`
	// Quarantined lists every stuck-open "kernel/isa" pair, whatever the
	// reason.
	Quarantined []string `json:"quarantined,omitempty"`
	// InFlight is the number of admitted /process requests right now.
	InFlight int `json:"in_flight"`
	// Goroutines and HeapAllocBytes are process health from the runtime
	// collector's newest sample.
	Goroutines     int     `json:"goroutines"`
	HeapAllocBytes float64 `json:"heap_alloc_bytes"`
	// ShedPerSec is the load-shedding rate (all reasons) over the window.
	ShedPerSec float64 `json:"shed_per_sec"`
	// Audit is the integrity view — sampler rates, lifetime tallies, and
	// tripped pairs; absent when auditing is disabled.
	Audit *AuditStats `json:"audit,omitempty"`
	// Memo is the result-cache view — occupancy, lifetime tallies, and
	// the windowed hit rate; absent when memoization is disabled.
	Memo *MemoStats `json:"memo,omitempty"`
}

// MemoStats is the /metrics/stream result-cache summary. The lifetime
// tallies come from the cache itself; HitsPerSec and MissesPerSec are
// windowed rates from the rollup ring.
type MemoStats struct {
	Entries      int     `json:"entries"`
	Bytes        int64   `json:"bytes"`
	BudgetBytes  int64   `json:"budget_bytes"`
	Hits         uint64  `json:"hits"`
	Misses       uint64  `json:"misses"`
	Coalesced    uint64  `json:"coalesced"`
	Evictions    uint64  `json:"evictions"`
	HitsPerSec   float64 `json:"hits_per_sec"`
	MissesPerSec float64 `json:"misses_per_sec"`
	// HitRatePct is the windowed hit+coalesce share of lookups, percent;
	// falls back to the lifetime ratio while the ring is young.
	HitRatePct float64 `json:"hit_rate_pct"`
}

// AuditStats is the /metrics/stream integrity summary.
type AuditStats struct {
	// EffectiveRate is the load-scaled sampling rate right now (configured
	// rate x admission-queue headroom).
	EffectiveRate float64 `json:"effective_rate"`
	Sampled       uint64  `json:"sampled"`
	Mismatches    uint64  `json:"mismatches"`
	// Quarantined lists the "kernel/isa" pairs quarantined for
	// corruption.
	Quarantined []string `json:"quarantined,omitempty"`
}

// KernelStats is one kernel's windowed view.
type KernelStats struct {
	Kernel string  `json:"kernel"`
	QPS    float64 `json:"qps"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// SLOStatus is one window's burn state for both objectives.
type SLOStatus struct {
	Window           string  `json:"window"`
	LatencyBurn      float64 `json:"latency_burn"`
	AvailabilityBurn float64 `json:"availability_burn"`
	Requests         uint64  `json:"requests"`
}

// labelValue extracts one label's value from a rendered series key
// (`name{k="v",k2="v2"}`), or "" when absent. Registry label values here
// (kernel names, ISA names) never contain quotes, so a plain scan is exact.
func labelValue(series, label string) string {
	i := strings.Index(series, label+`="`)
	if i < 0 {
		return ""
	}
	rest := series[i+len(label)+2:]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return rest[:j]
}

// buildFrame samples the registry and assembles one frame over window.
func (s *Server) buildFrame(window time.Duration) StreamFrame {
	sm := s.ts.Sample()
	s.slo.publish(s.reg)
	f := StreamFrame{
		Time:      sm.Time.Format(time.RFC3339Nano),
		UptimeSec: time.Since(s.start).Seconds(),
	}
	s.flightMu.Lock()
	f.InFlight = len(s.flight)
	s.flightMu.Unlock()

	f.Goroutines = int(sm.Gauges["go_goroutines"])
	f.HeapAllocBytes = sm.Gauges["go_heap_alloc_bytes"]

	if ru, ok := s.ts.Rollup(window); ok {
		f.WindowSec = ru.Window.Seconds()
		for _, key := range ru.SeriesMatching("request_seconds_count{") {
			k := labelValue(key, "kernel")
			if k == "" {
				continue
			}
			st := KernelStats{Kernel: k, QPS: ru.Rates[key]}
			hk := "request_seconds{kernel=" + strconv.Quote(k) + "}"
			if q, ok := ru.Quantiles[hk]; ok {
				st.P50Ms = q.P50 * 1e3
				st.P95Ms = q.P95 * 1e3
				st.P99Ms = q.P99 * 1e3
			}
			f.Kernels = append(f.Kernels, st)
		}
		for _, key := range ru.SeriesMatching("requests_shed_total{") {
			f.ShedPerSec += ru.Rates[key]
		}
	}

	for _, b := range s.slo.burnRates() {
		f.SLO = append(f.SLO, SLOStatus{
			Window:           b.Window.String(),
			LatencyBurn:      b.Latency,
			AvailabilityBurn: b.Availability,
			Requests:         b.Requests,
		})
	}

	snap := s.brk.Snapshot()
	if len(snap) > 0 {
		f.Breakers = make(map[string]string, len(snap))
		for k, st := range snap {
			f.Breakers[k] = st.String()
		}
	}
	for _, q := range s.brk.Quarantines() {
		f.Quarantined = append(f.Quarantined, q.Kernel+"/"+q.ISA)
	}
	if s.aud != nil {
		f.Audit = &AuditStats{
			EffectiveRate: s.aud.EffectiveRate(),
			Sampled:       s.aud.Sampled(),
			Mismatches:    s.aud.Mismatches(),
			Quarantined:   s.corrupted(),
		}
	}
	if s.memo != nil {
		st := s.memo.Stats()
		m := &MemoStats{
			Entries:     st.Entries,
			Bytes:       st.Bytes,
			BudgetBytes: st.BudgetBytes,
			Hits:        st.Hits,
			Misses:      st.Misses,
			Coalesced:   st.Coalesced,
			Evictions:   st.Evictions,
		}
		if ru, ok := s.ts.Rollup(window); ok {
			m.HitsPerSec = ru.Rates["memo_hits_total"] + ru.Rates["memo_coalesced_total"]
			m.MissesPerSec = ru.Rates["memo_misses_total"]
		}
		if total := m.HitsPerSec + m.MissesPerSec; total > 0 {
			m.HitRatePct = 100 * m.HitsPerSec / total
		} else if lt := st.Hits + st.Coalesced + st.Misses; lt > 0 {
			m.HitRatePct = 100 * float64(st.Hits+st.Coalesced) / float64(lt)
		}
		f.Memo = m
	}
	return f
}

// handleMetricsStream serves frames as Server-Sent Events. Query
// parameters: interval_ms (frame cadence, default 1000, clamped to
// [100, 60000]), frames (stop after N frames; 0 = until the client
// disconnects), window_ms (rollup window, default 60000). The first frame
// is sent immediately so one-shot consumers need not wait an interval.
func (s *Server) handleMetricsStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeJSON(w, http.StatusInternalServerError,
			map[string]any{"error": "streaming unsupported"})
		return
	}
	interval := time.Second
	if v, err := strconv.Atoi(r.URL.Query().Get("interval_ms")); err == nil && v > 0 {
		interval = time.Duration(min(max(v, 100), 60000)) * time.Millisecond
	}
	frames := 0
	if v, err := strconv.Atoi(r.URL.Query().Get("frames")); err == nil && v > 0 {
		frames = v
	}
	window := time.Minute
	if v, err := strconv.Atoi(r.URL.Query().Get("window_ms")); err == nil && v > 0 {
		window = time.Duration(v) * time.Millisecond
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	t := time.NewTicker(interval)
	defer t.Stop()
	for sent := 0; ; {
		frame := s.buildFrame(window)
		data, err := json.Marshal(frame)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "data: %s\n\n", data)
		fl.Flush()
		sent++
		if frames > 0 && sent >= frames {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-t.C:
		}
	}
}
