package neon

import "simdstudy/internal/trace"

// Lanes is the plain form of a Unit that a lane twin runs on: a value with
// no fault hook, whose intrinsics are inline lane arithmetic plus, when n
// is set, one increment of a bound tally's count array. Its intrinsic
// methods are generated from the Unit's (lanes_gen.go; see cmd/lanegen),
// so each intrinsic's lane body is written once.
type Lanes struct{ n *[trace.MaxOps]uint64 }

// Lanes returns the unit's plain form and true when nothing needs the
// instrumented one: no injector is attached, and either the unit is
// untraced (the lanes count nothing) or its tally binds to T (the lanes
// count into the bound array, which Flush folds as usual). A shared unit or
// a counter capturing a sequence keeps the instrumented intrinsics.
func (u *Unit) Lanes() (Lanes, bool) {
	if u.F != nil {
		return Lanes{}, false
	}
	if u.T == nil || u.cnt != nil {
		return Lanes{u.cnt}, true
	}
	return u.bindLanes()
}

// bindLanes binds the unit's tally for Lanes, out of line so the bound
// case inlines.
func (u *Unit) bindLanes() (Lanes, bool) {
	n := u.tl.Bind(u.T)
	if n == nil {
		return Lanes{}, false
	}
	u.cnt = n
	return Lanes{n}, true
}

// Overhead is (*Unit).Overhead on lanes.
func (u Lanes) Overhead(addrCalcs, branches, moves int) {
	if u.n != nil {
		u.n[opAddMovAddr] += uint64(addrCalcs)
		u.n[opCmpB] += uint64(branches)
		u.n[opMov] += uint64(moves)
	}
}
