package exec

import (
	"testing"

	"simdstudy/internal/kernels"
	"simdstudy/internal/trace"
	"simdstudy/internal/vectorizer"
)

// TestRunDecisionMatchesScalar executes every benchmark loop under its
// actual vectorizer decision and checks the results equal plain scalar
// execution — the end-to-end soundness check of the compiler model.
func TestRunDecisionMatchesScalar(t *testing.T) {
	const n = 100

	// Threshold loop (scalar under the model, but RunDecision must handle
	// both branches; GaussCol7 exercises the vectorized one).
	thr := kernels.ThresholdTrunc(100)
	envA, envB := NewEnv(), NewEnv()
	src := make([]uint8, n)
	for i := range src {
		src[i] = uint8(i * 7)
	}
	envA.U8["src"] = src
	envA.U8["dst"] = make([]uint8, n)
	envB.U8["src"] = append([]uint8(nil), src...)
	envB.U8["dst"] = make([]uint8, n)

	var tr trace.Counter
	d := vectorizer.Analyze(thr, vectorizer.TargetNEON)
	if err := RunDecision(thr, d, envA, n, RoundARM, &tr); err != nil {
		t.Fatal(err)
	}
	if err := Run(thr, envB, n, RoundARM); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if envA.U8["dst"][i] != envB.U8["dst"][i] {
			t.Fatalf("threshold pixel %d differs", i)
		}
	}
	if tr.Total() == 0 {
		t.Fatal("decision profile must be charged")
	}

	// Vectorized loop: gauss column pass.
	col := kernels.GaussCol7()
	dv := vectorizer.Analyze(col, vectorizer.TargetSSE2)
	if !dv.Vectorized {
		t.Fatalf("gauss col should vectorize: %s", dv.Reason)
	}
	envV, envS := NewEnv(), NewEnv()
	names := []string{"r0", "r1", "r2", "r3", "r4", "r5", "r6"}
	for k, name := range names {
		row := make([]uint8, n)
		for i := range row {
			row[i] = uint8(i*3 + k*11)
		}
		envV.U8[name] = row
		envS.U8[name] = append([]uint8(nil), row...)
	}
	envV.U8["dst"] = make([]uint8, n)
	envS.U8["dst"] = make([]uint8, n)
	var trv trace.Counter
	if err := RunDecision(col, dv, envV, n, RoundX86, &trv); err != nil {
		t.Fatal(err)
	}
	if err := Run(col, envS, n, RoundX86); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if envV.U8["dst"][i] != envS.U8["dst"][i] {
			t.Fatalf("gauss col pixel %d differs under blocked execution", i)
		}
	}
	if trv.SIMDTotal() == 0 {
		t.Fatal("vectorized decision must charge vector instructions")
	}
	if trv.Count(trace.Branch) == 0 {
		t.Fatal("loop overhead must be charged")
	}
}

func TestRunDecisionPropagatesErrors(t *testing.T) {
	thr := kernels.ThresholdTrunc(1)
	d := vectorizer.Analyze(thr, vectorizer.TargetNEON)
	env := NewEnv() // missing arrays
	if err := RunDecision(thr, d, env, 4, RoundARM, nil); err == nil {
		t.Fatal("missing arrays should error")
	}
}

func TestChargeProfileRounds(t *testing.T) {
	var tr trace.Counter
	var p vectorizer.Profile
	p.Add(trace.SIMDALU, 2.6)
	p.Add(trace.Branch, 0.4)
	chargeProfile(&tr, p)
	if tr.Count(trace.SIMDALU) != 3 {
		t.Errorf("rounding up: %d", tr.Count(trace.SIMDALU))
	}
	if tr.Count(trace.Branch) != 0 {
		t.Errorf("rounding down: %d", tr.Count(trace.Branch))
	}
}

// TestChargeProfileInterned: the AUTO profile is charged under the
// interned "auto.<class>" names, rounding each class, skipping empty ones,
// and — the names being interned once at init — without allocating.
func TestChargeProfileInterned(t *testing.T) {
	var p vectorizer.Profile
	p[trace.SIMDALU] = 2.6
	p[trace.Branch] = 0.4
	var tr trace.Counter
	chargeProfile(&tr, p)
	if got := tr.Opcode("auto.simd.alu"); got != 3 {
		t.Fatalf("auto.simd.alu = %d, want 3", got)
	}
	if tr.Count(trace.SIMDALU) != 3 || tr.Total() != 3 {
		t.Fatalf("classes %v, want only 3 simd.alu", tr.Classes())
	}
	if n := testing.AllocsPerRun(50, func() { chargeProfile(&tr, p) }); n != 0 {
		t.Fatalf("chargeProfile allocates %v per call", n)
	}
}
