package neon

import "simdstudy/internal/trace"

// Lanes is the plain form of a Unit that a lane twin runs on: a zero-size
// value with no hooks, whose intrinsics are inline lane arithmetic and
// count nothing. Its methods are generated from the Unit's (lanes_gen.go;
// see cmd/lanegen), so each intrinsic's lane body is written once; a
// counting twin counts beside the calls and adds its counts to Counts.
type Lanes struct{}

// LaneTwin reports whether a lane twin may stand in for the instrumented
// intrinsics, and which: 0, the plain twin, on an untraced unit; 1, the
// counting twin, on a traced one, whose tally it binds to T so that Counts
// returns the array the twin adds to (Flush folds it as usual). With an
// injector attached, or a tally that cannot bind (shared, or a counter
// capturing a sequence), it answers false.
func (u *Unit) LaneTwin() (int, bool) {
	switch {
	case u.F != nil:
		return 0, false
	case u.T == nil:
		return 0, true
	case u.cnt == nil:
		if u.cnt = u.tl.Bind(u.T); u.cnt == nil {
			return 0, false
		}
	}
	return 1, true
}

// Counts returns the count array LaneTwin bound, nil until then: a
// counting twin reads it once per call to flush into.
func (u *Unit) Counts() *[trace.MaxOps]uint64 { return u.cnt }
