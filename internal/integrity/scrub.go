package integrity

import (
	"sync"

	"simdstudy/internal/image"
	"simdstudy/internal/obs"
)

// PoolScrubber re-verifies pooled scratch planes before reuse. PutMat-side
// Stamp fingerprints the plane exactly as parked; GetMat-side Check
// recomputes the fingerprint before the pool's reslice-and-clear touches
// the plane, so corruption acquired while the Mat sat idle (bit rot, a
// wild write from an unrelated goroutine) is detected at the only moment
// it matters: just before the plane would be trusted again. A failed check
// drops the Mat — the caller allocates fresh — and records
// plane_scrub_total{result="corrupt"} plus an integrity.scrub event naming
// the corrupt element range.
//
// sync.Pool offers no iteration, so there is no separate scan goroutine;
// the reuse boundary gives equivalent coverage (every plane is verified
// between park and use) without racing the pool's GC-driven eviction.
// Stamps are held in a bounded table keyed by Mat identity: when full, the
// oldest stamp is evicted and its Mat simply passes unverified — the
// scrubber degrades to sampling rather than growing without bound as the
// pool's contents are collected and replaced.
type PoolScrubber struct {
	reg       *obs.Registry
	blockRows int
	capacity  int

	mu    sync.Mutex
	sums  map[*image.Mat]PlaneSum
	order []*image.Mat // insertion order for bounded eviction
}

// NewPoolScrubber builds a scrubber reporting to reg (which may be nil),
// fingerprinting in 16-row blocks and remembering up to 64 parked planes.
func NewPoolScrubber(reg *obs.Registry) *PoolScrubber {
	return &PoolScrubber{
		reg:       reg,
		blockRows: 16,
		capacity:  64,
		sums:      map[*image.Mat]PlaneSum{},
	}
}

// Stamp fingerprints m as it is parked in the pool.
func (s *PoolScrubber) Stamp(m *image.Mat) {
	if s == nil || m == nil {
		return
	}
	ps := SumMat(m, s.blockRows)
	s.mu.Lock()
	if _, ok := s.sums[m]; !ok {
		for len(s.order) >= s.capacity {
			old := s.order[0]
			s.order = s.order[1:]
			delete(s.sums, old)
		}
		s.order = append(s.order, m)
	}
	s.sums[m] = ps
	s.mu.Unlock()
}

// Check verifies m against the fingerprint taken when it was parked,
// consuming the stamp either way. It returns false when the plane changed
// while parked — the caller must discard the Mat. A Mat with no stamp
// (evicted, or never parked through Stamp) passes unverified.
func (s *PoolScrubber) Check(m *image.Mat) bool {
	if s == nil || m == nil {
		return true
	}
	s.mu.Lock()
	ps, ok := s.sums[m]
	if ok {
		delete(s.sums, m)
		for i, o := range s.order {
			if o == m {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
	s.mu.Unlock()
	if !ok {
		return true
	}
	err := ps.VerifyMat(m)
	if err == nil {
		s.reg.Counter("plane_scrub_total", obs.L("result", "ok")).Inc()
		return true
	}
	s.reg.Counter("plane_scrub_total", obs.L("result", "corrupt")).Inc()
	fields := map[string]any{"kind": int(m.Kind), "error": err.Error()}
	if ce, isCE := err.(*ChecksumError); isCE {
		fields["block"] = ce.Block
		fields["lo"], fields["hi"] = ce.Lo, ce.Hi
	}
	s.reg.Emit("integrity.scrub", fields)
	return false
}
