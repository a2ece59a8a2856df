package neon

import "simdstudy/internal/trace"

// Lanes is the plain form of a Unit that a lane twin runs on: a zero-size
// value with no hooks, whose intrinsics are inline lane arithmetic and
// count nothing. Its methods are generated from the Unit's (lanes_gen.go;
// see cmd/lanegen), so each intrinsic's lane body is written once; on a
// traced unit a skeleton, run after the plain twin, adds what the
// intrinsics would have counted to Counts.
type Lanes struct{}

// LaneTwin reports whether a lane twin may stand in for the instrumented
// intrinsics, and whether the unit is traced, when the twin's skeleton
// must run after it: then LaneTwin binds the unit's tally to T so that
// Counts returns the array the skeleton adds to (Flush folds it as
// usual). With an injector attached, or a tally that cannot bind (shared,
// or a counter capturing a sequence), it answers false.
func (u *Unit) LaneTwin() (traced, ok bool) {
	switch {
	case u.F != nil:
		return false, false
	case u.T == nil:
		return false, true
	case u.cnt == nil:
		if u.cnt = u.tl.Bind(u.T); u.cnt == nil {
			return false, false
		}
	}
	return true, true
}

// Counts returns the count array LaneTwin bound, nil until then: a
// skeleton reads it once per call to flush into.
func (u *Unit) Counts() *[trace.MaxOps]uint64 { return u.cnt }
