package vectorizer

import (
	"testing"

	"simdstudy/internal/ir"
	"simdstudy/internal/kernels"
)

// TestAnalyzeCachedMatchesAnalyze checks the memoized path returns the exact
// Decision the direct path computes, for every kernel pass on both targets —
// including a second sweep over freshly rebuilt loops (kernels.Benchmarks()
// reconstructs every ir.Loop per call), which must all be cache hits.
func TestAnalyzeCachedMatchesAnalyze(t *testing.T) {
	ResetCache()
	targets := []Target{TargetNEON, TargetSSE2}
	for _, b := range kernels.Benchmarks() {
		for _, pass := range b.Passes {
			for _, tgt := range targets {
				want := Analyze(pass.Loop, tgt)
				got := AnalyzeCached(pass.Loop, tgt)
				if got != want {
					t.Errorf("%s/%s %s: cached decision differs from direct", b.Name, pass.Loop.Name, tgt)
				}
			}
		}
	}
	filled := cacheSize()
	if filled == 0 {
		t.Fatal("cache empty after first sweep")
	}

	// Second sweep over rebuilt loop values: content-identical, different
	// pointers. The cache must not grow.
	for _, b := range kernels.Benchmarks() {
		for _, pass := range b.Passes {
			for _, tgt := range targets {
				want := Analyze(pass.Loop, tgt)
				if got := AnalyzeCached(pass.Loop, tgt); got != want {
					t.Errorf("%s/%s %s: rebuilt-loop cached decision differs", b.Name, pass.Loop.Name, tgt)
				}
			}
		}
	}
	if n := cacheSize(); n != filled {
		t.Errorf("cache grew on rebuilt identical loops: %d -> %d entries", filled, n)
	}
}

// TestAnalyzeCachedDiscriminates checks the fingerprint separates loops that
// differ only in one instruction field, and the same loop across targets.
func TestAnalyzeCachedDiscriminates(t *testing.T) {
	ResetCache()
	mk := func(stride int) *ir.Loop {
		return &ir.Loop{Name: "cachetest", Body: []ir.Instr{
			{Op: ir.OpLoad, Type: ir.U8, Array: "src", Stride: stride},
			{Op: ir.OpStore, Type: ir.U8, Array: "dst", Stride: 1, Args: []ir.Value{0}},
		}}
	}
	unit := AnalyzeCached(mk(1), TargetNEON)
	strided := AnalyzeCached(mk(3), TargetNEON)
	if unit.Vectorized == strided.Vectorized {
		t.Errorf("stride change not discriminated: unit.Vectorized=%v strided.Vectorized=%v",
			unit.Vectorized, strided.Vectorized)
	}
	sse := AnalyzeCached(mk(1), TargetSSE2)
	if sse.Target != TargetSSE2 || unit.Target != TargetNEON {
		t.Errorf("targets collided in cache: %s vs %s", unit.Target, sse.Target)
	}
	if cacheSize() != 3 {
		t.Errorf("want 3 cache entries, got %d", cacheSize())
	}
}

func BenchmarkAnalyze(b *testing.B) {
	benches := kernels.Benchmarks()
	l := benches[0].Passes[0].Loop
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Analyze(l, TargetNEON)
		}
	})
	b.Run("cached", func(b *testing.B) {
		ResetCache()
		for i := 0; i < b.N; i++ {
			AnalyzeCached(l, TargetNEON)
		}
	})
}

// cacheSize is the number of memoized decisions.
func cacheSize() int {
	n := 0
	analyzeMemo.Range(func(any, any) bool { n++; return true })
	return n
}
