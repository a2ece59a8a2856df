package integrity

import (
	"simdstudy/internal/image"
	"simdstudy/internal/obs"
)

// PoolScrubber re-verifies recycled planes before reuse. PutMat-side Stamp
// fingerprints the plane exactly as parked, and the recycler keeps the
// fingerprint beside the idle plane; GetMat-side Check recomputes it
// before the recycler's reslice-and-clear touches the plane, so corruption
// acquired while the Mat sat idle (bit rot, a wild write from an unrelated
// goroutine) is detected at the only moment it matters: just before the
// plane would be trusted again. A failed check drops the Mat — the caller
// allocates fresh — and records plane_scrub_total{result="corrupt"} plus
// an integrity.scrub event naming the corrupt element range.
//
// The reuse boundary needs no separate scan goroutine: every parked plane
// is verified between park and use. The scrubber itself holds nothing, so
// a plane the recycler evicts is collectable along with its fingerprint.
type PoolScrubber struct {
	reg       *obs.Registry
	blockRows int
}

// NewPoolScrubber builds a scrubber reporting to reg (which may be nil),
// fingerprinting in 16-row blocks.
func NewPoolScrubber(reg *obs.Registry) *PoolScrubber {
	return &PoolScrubber{reg: reg, blockRows: 16}
}

// Stamp fingerprints m as it is parked; the caller keeps the stamp
// beside the idle plane and hands it back to Check.
func (s *PoolScrubber) Stamp(m *image.Mat) any {
	if s == nil || m == nil {
		return nil
	}
	return SumMat(m, s.blockRows)
}

// Check verifies m against the stamp taken when it was parked. It returns
// false when the plane changed while parked — the caller must discard the
// Mat. A nil stamp (the plane parked before the scrubber was installed)
// passes unverified.
func (s *PoolScrubber) Check(m *image.Mat, stamp any) bool {
	ps, ok := stamp.(PlaneSum)
	if s == nil || m == nil || !ok {
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
