package exec

import (
	"simdstudy/internal/ir"
	"simdstudy/internal/trace"
	"simdstudy/internal/vectorizer"
)

// RunDecision executes a loop the way the AUTO build would run it under
// the given vectorizer decision: lane-blocked at the decision's vector
// factor when vectorized (with the scalar remainder), plain scalar
// otherwise. The decision's per-iteration instruction profile is charged
// into t, so callers get both the AUTO build's observable results and its
// modeled dynamic instruction stream from one call.
func RunDecision(l *ir.Loop, d vectorizer.Decision, env *Env, n int, mode RoundMode, t *trace.Counter) error {
	var err error
	if d.Vectorized {
		err = RunBlocked(l, env, n, d.VF, mode)
	} else {
		err = Run(l, env, n, mode)
	}
	if err != nil {
		return err
	}
	if t != nil {
		profile := d.PerIteration(n).Scale(float64(n))
		chargeProfile(t, profile)
	}
	return nil
}

// autoOps holds the interned "auto.<class>" op of every class, the
// mnemonics an AUTO build's modeled profile is charged under.
var autoOps = func() (ids [trace.NumClasses]trace.OpID) {
	for c := range ids {
		ids[c] = trace.Intern("auto."+trace.Class(c).String(), trace.Class(c), 0)
	}
	return ids
}()

// chargeProfile records a fractional per-class profile into a counter,
// rounding each class to the nearest whole instruction.
func chargeProfile(t *trace.Counter, p vectorizer.Profile) {
	for c, id := range autoOps {
		t.RecordIDN(id, uint64(p[c]+0.5))
	}
}
