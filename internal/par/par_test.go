package par

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simdstudy/internal/image"
	"simdstudy/internal/integrity"
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

// TestMatPool: recycled planes come back with the right shape; GetMat
// zeroes a recycled plane and GetMatForOverwrite hands it back as parked.
func TestMatPool(t *testing.T) {
	var r recycler
	m := r.get(33, 17, image.S16, true)
	if m.Width != 33 || m.Height != 17 || m.Kind != image.S16 || len(m.S16Pix) != 33*17 {
		t.Fatalf("GetMat shape: %dx%d %v len %d", m.Width, m.Height, m.Kind, len(m.S16Pix))
	}
	for i := range m.S16Pix {
		m.S16Pix[i] = -42
	}
	r.put(m)
	m2 := r.get(33, 17, image.S16, true)
	if m2 != m {
		t.Fatal("an idle plane of the exact size was not reused")
	}
	for i, p := range m2.S16Pix {
		if p != 0 {
			t.Fatalf("recycled plane not zeroed at %d: %d", i, p)
		}
	}
	for i := range m2.S16Pix {
		m2.S16Pix[i] = -42
	}
	r.put(m2)
	// A smaller take within 2x reuses the plane resliced, without clearing.
	m3 := r.get(30, 17, image.S16, false)
	if m3 != m || m3.Width != 30 || m3.Height != 17 || len(m3.S16Pix) != 30*17 {
		t.Fatalf("GetMatForOverwrite: %p vs %p, %dx%d len %d", m3, m, m3.Width, m3.Height, len(m3.S16Pix))
	}
	if m3.S16Pix[0] != -42 {
		t.Fatal("GetMatForOverwrite cleared the plane")
	}
	r.put(m3)
	if r.out != 0 || r.idleBytes != planeBytes(m) {
		t.Fatalf("accounting: out %d idle %d, want 0 and %d", r.out, r.idleBytes, planeBytes(m))
	}
}

// TestRecyclerBestFit: a take is served only by a plane of capacity
// within [n, 2n], the smallest such, so a referee's row window never
// stands in for a full plane and a 5 Mpx plane is never spent on VGA.
func TestRecyclerBestFit(t *testing.T) {
	var r recycler
	big := r.get(2592, 1944, image.U8, true)
	win := r.get(640, 40, image.U8, true)
	loose := r.get(640, 700, image.U8, true)
	snug := r.get(640, 500, image.U8, true)
	for _, m := range []*image.Mat{big, win, snug, loose} {
		r.put(m)
	}
	if vga := r.get(640, 480, image.U8, true); vga != snug {
		t.Fatalf("VGA take got a %d-element plane, want the snug %d", capacity(vga), capacity(snug))
	}
	if vga := r.get(640, 480, image.U8, true); vga != loose {
		t.Fatalf("second VGA take got a %d-element plane, want the loose %d", capacity(vga), capacity(loose))
	}
	if vga := r.get(640, 480, image.U8, true); vga == big || vga == win {
		t.Fatalf("third VGA take got a %d-element plane; want a fresh one", capacity(vga))
	}
	if m := r.get(640, 40, image.S16, true); m == win {
		t.Fatal("a take of another kind got the U8 window")
	}
	if m := r.get(640, 40, image.U8, true); m != win {
		t.Fatal("the window-sized take missed the idle window")
	}
}

// TestRecyclerWithinTwiceHighWater: over a seeded random sequence of
// takes and parks, checked-out plus idle bytes never exceed twice the most
// bytes ever checked out at once, and checked-out bytes are exactly what
// the caller holds.
func TestRecyclerWithinTwiceHighWater(t *testing.T) {
	var r recycler
	rng := rand.New(rand.NewPCG(1, 2))
	sizes := [][2]int{{640, 480}, {640, 40}, {320, 240}, {160, 120}, {640, 2}, {1296, 972}}
	var held []*image.Mat
	heldBytes := func() (b int64) {
		for _, m := range held {
			b += planeBytes(m)
		}
		return b
	}
	for op := 0; op < 5000; op++ {
		if len(held) > 0 && (len(held) > 12 || rng.IntN(2) == 0) {
			i := rng.IntN(len(held))
			r.put(held[i])
			held = slices.Delete(held, i, i+1)
		} else {
			sz := sizes[rng.IntN(len(sizes))]
			m := r.get(sz[0], sz[1], image.Type(rng.IntN(3)), rng.IntN(2) == 0)
			if slices.Contains(held, m) {
				t.Fatalf("op %d: a held plane was handed out again", op)
			}
			held = append(held, m)
		}
		var idle int64
		for _, l := range r.idle {
			for _, p := range l {
				idle += planeBytes(p.m)
			}
		}
		if idle != r.idleBytes || r.out != heldBytes() {
			t.Fatalf("op %d: idle %d (counted %d), out %d (held %d)", op, idle, r.idleBytes, r.out, heldBytes())
		}
		if r.out+r.idleBytes > 2*r.high {
			t.Fatalf("op %d: %d bytes out and %d idle, over twice the high-water mark %d", op, r.out, r.idleBytes, r.high)
		}
	}
}

// TestPutMatTwicePanics: parking a plane that is already idle would hand
// it to two takers, so it panics instead.
func TestPutMatTwicePanics(t *testing.T) {
	var r recycler
	m := r.get(8, 8, image.U8, true)
	r.put(m)
	defer func() {
		if recover() == nil {
			t.Fatal("double PutMat did not panic")
		}
	}()
	r.put(m)
}

// TestRecyclerConcurrent: concurrent takes and parks on the process-wide
// recycler never share a plane between holders (run under -race).
func TestRecyclerConcurrent(t *testing.T) {
	before := ReadPlaneStats().CheckedOut
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m := GetMat(64+i%3*32, 48, image.U8)
				tag := byte(g*50 + i%50 + 1)
				for j := range m.U8Pix {
					m.U8Pix[j] = tag
				}
				runtime.Gosched()
				for j, v := range m.U8Pix {
					if v != tag {
						t.Errorf("goroutine %d: plane shared, element %d reads %d want %d", g, j, v, tag)
						return
					}
				}
				PutMat(m)
			}
		}(g)
	}
	wg.Wait()
	if got := ReadPlaneStats().CheckedOut; got != before {
		t.Fatalf("checked-out bytes %d after every plane returned, want %d", got, before)
	}
}

// TestEvictedPlaneIsCollectable: with the scrubber installed, a plane the
// recycler evicts is garbage — the fingerprint lives beside the idle
// plane, so nothing else keeps it reachable.
func TestEvictedPlaneIsCollectable(t *testing.T) {
	SetScrubber(integrity.NewPoolScrubber(nil))
	defer SetScrubber(nil)
	var r recycler
	freed := make(chan struct{})
	func() {
		a := r.get(640, 480, image.U8, true)
		runtime.SetFinalizer(a, func(*image.Mat) { close(freed) })
		r.put(a)
	}()
	// Three planes of one size, each of another kind, are checked out one
	// at a time: the high-water mark stays at one plane, so taking the
	// third evicts the oldest.
	b := r.get(640, 240, image.S16, true)
	r.put(b)
	c := r.get(640, 120, image.F32, true)
	r.put(c)
	if want := planeBytes(b) + planeBytes(c); r.idleBytes != want {
		t.Fatalf("idle %d bytes, want the S16 and F32 planes' %d", r.idleBytes, want)
	}
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the evicted plane was never collected")
}
