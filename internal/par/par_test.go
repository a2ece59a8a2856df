package par

import (
	"runtime"
	"sync/atomic"
	"testing"

	"simdstudy/internal/image"
)

// TestSpanPartition: bands must tile [0, total) exactly, in order, with
// sizes differing by at most one.
func TestSpanPartition(t *testing.T) {
	for _, total := range []int{1, 7, 16, 41, 97, 1000} {
		for n := 1; n <= 9; n++ {
			if n > total {
				continue
			}
			next, minSz, maxSz := 0, total, 0
			for i := 0; i < n; i++ {
				lo, hi := Span(i, n, total)
				if lo != next {
					t.Fatalf("Span(%d,%d,%d): lo=%d want %d (gap or overlap)", i, n, total, lo, next)
				}
				if hi <= lo {
					t.Fatalf("Span(%d,%d,%d): empty band [%d,%d)", i, n, total, lo, hi)
				}
				sz := hi - lo
				minSz, maxSz = min(minSz, sz), max(maxSz, sz)
				next = hi
			}
			if next != total {
				t.Fatalf("Span(*,%d,%d): covers %d units", n, total, next)
			}
			if maxSz-minSz > 1 {
				t.Fatalf("Span(*,%d,%d): band sizes range %d..%d", n, total, minSz, maxSz)
			}
		}
	}
}

// TestNBands: capped by workers, floored by minPerBand, never zero.
func TestNBands(t *testing.T) {
	cases := []struct{ units, workers, minPer, want int }{
		{100, 4, 16, 4},    // plenty of rows: one band per worker
		{40, 4, 16, 2},     // min band height limits the split
		{10, 4, 16, 1},     // too small to split at all
		{100, 1, 16, 1},    // serial
		{100, 0, 16, 1},    // degenerate workers clamp to 1
		{5, 8, 0, 5},       // minPerBand<1 clamps to 1 unit
		{100, 200, 1, 100}, // more workers than units: one unit per band
	}
	for _, c := range cases {
		if got := NBands(c.units, c.workers, c.minPer); got != c.want {
			t.Errorf("NBands(%d,%d,%d) = %d, want %d", c.units, c.workers, c.minPer, got, c.want)
		}
	}
}

// TestNormalized: defaults fill in, explicit values survive.
func TestNormalized(t *testing.T) {
	n := Config{}.Normalized()
	if n.Workers != runtime.GOMAXPROCS(0) || n.MinRowsPerBand != DefaultMinRows {
		t.Fatalf("zero config normalized to %+v", n)
	}
	n = Config{Workers: 3, MinRowsPerBand: 5}.Normalized()
	if n.Workers != 3 || n.MinRowsPerBand != 5 {
		t.Fatalf("explicit config mangled: %+v", n)
	}
}

// TestRunExecutesAllBands: every band runs exactly once, for counts both
// below and far above the pool size (inline overflow path).
func TestRunExecutesAllBands(t *testing.T) {
	for _, n := range []int{1, 2, runtime.GOMAXPROCS(0) * 4, 100} {
		hits := make([]atomic.Int32, n)
		if panics := Run(n, func(i int) { hits[i].Add(1) }); panics != nil {
			t.Fatalf("n=%d: unexpected panics %v", n, panics)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d: band %d ran %d times", n, i, got)
			}
		}
	}
	if Run(0, func(int) { t.Fatal("ran") }) != nil {
		t.Fatal("n=0 should be a no-op")
	}
}

// TestRunCapturesPanics: a panicking band must not take down the process or
// the pool; the panic value comes back indexed by band and other bands
// still complete.
func TestRunCapturesPanics(t *testing.T) {
	const n = 8
	var ran atomic.Int32
	panics := Run(n, func(i int) {
		ran.Add(1)
		if i == 3 || i == 6 {
			panic(i * 100)
		}
	})
	if ran.Load() != n {
		t.Fatalf("only %d/%d bands ran", ran.Load(), n)
	}
	if panics == nil || len(panics) != n {
		t.Fatalf("panics = %v", panics)
	}
	for i, p := range panics {
		switch i {
		case 3, 6:
			if p != i*100 {
				t.Errorf("band %d panic = %v, want %d", i, p, i*100)
			}
		default:
			if p != nil {
				t.Errorf("band %d spurious panic %v", i, p)
			}
		}
	}
	// The pool must still be serviceable after a panic.
	if p := Run(4, func(int) {}); p != nil {
		t.Fatalf("pool broken after panic: %v", p)
	}
}

// TestMatPool: pooled planes come back with the right shape, zeroed.
func TestMatPool(t *testing.T) {
	m := GetMat(33, 17, image.S16)
	if m.Width != 33 || m.Height != 17 || m.Kind != image.S16 {
		t.Fatalf("GetMat shape: %dx%d %v", m.Width, m.Height, m.Kind)
	}
	for i := range m.S16Pix {
		m.S16Pix[i] = -42
	}
	PutMat(m)
	m2 := GetMat(33, 17, image.S16)
	for i, p := range m2.S16Pix {
		if p != 0 {
			t.Fatalf("recycled plane not zeroed at %d: %d", i, p)
		}
	}
	PutMat(m2)
}
