package cv

import (
	"math/rand/v2"
	"testing"

	"simdstudy/internal/faults"
	"simdstudy/internal/image"
	"simdstudy/internal/par"
	"simdstudy/internal/sat"
	"simdstudy/internal/trace"
)

// poisonPool parks planes filled with b in the par recycler, U8 and S16,
// of every row count from h down to 1 by halving at width w. A take of r
// rows is served by an idle plane of r to 2r rows, which the halving
// series always holds, so the next full planes and strip windows the
// kernels take at width w come back holding b, not zeros.
func poisonPool(w, h int, b byte) {
	var ms []*image.Mat
	for rows := h; ; rows = (rows + 1) / 2 {
		for range 12 {
			for _, k := range []image.Type{image.U8, image.S16} {
				m := par.GetMatForOverwrite(w, rows, k)
				for i := range m.U8Pix {
					m.U8Pix[i] = b
				}
				for i := range m.S16Pix {
					m.S16Pix[i] = int16(b) | int16(b)<<8
				}
				ms = append(ms, m)
			}
		}
		if rows == 1 {
			break
		}
	}
	for _, m := range ms {
		par.PutMat(m)
	}
}

// TestStalePoolPlanesDoNotLeak: the stages that take their scratch planes
// and strip windows unzeroed (par.GetMatForOverwrite) write every element
// before they read it. With the pool full of stale planes — 0xAA, and 0x02,
// which a marker plane reads as a strong edge — Canny, DetectEdges and
// SobelFilter must produce the bytes they produce from fresh planes, staged
// and fused, serial and banded, traced or not, on every ISA, with and
// without skewed stores.
func TestStalePoolPlanesDoNotLeak(t *testing.T) {
	kernels := []struct {
		name string
		kind image.Type
		run  func(o *Ops, src, dst *image.Mat) error
	}{
		{"Canny", image.U8, func(o *Ops, src, dst *image.Mat) error { return o.Canny(src, dst, 60, 200) }},
		{"DetectEdges", image.U8, func(o *Ops, src, dst *image.Mat) error { return o.DetectEdges(src, dst, 90) }},
		{"SobelX", image.S16, func(o *Ops, src, dst *image.Mat) error { return o.SobelFilter(src, dst, 1, 0) }},
		{"SobelY", image.S16, func(o *Ops, src, dst *image.Mat) error { return o.SobelFilter(src, dst, 0, 1) }},
	}
	configs := []struct {
		name    string
		workers int
		fuse    FuseConfig
		traced  bool
	}{
		{"staged", 1, FuseConfig{}, false},
		{"staged/workers=3", 3, FuseConfig{}, false},
		{"fused", 1, FuseConfig{Enabled: true, StripRows: 8}, false},
		{"fused/workers=3", 3, FuseConfig{Enabled: true, StripRows: 5}, false},
		{"fused/traced", 2, FuseConfig{Enabled: true, StripRows: 8}, true},
	}
	for _, res := range []image.Resolution{{Width: 61, Height: 53}, {Width: 130, Height: 17}, {Width: 7, Height: 9}} {
		src := image.Synthetic(res, 3)
		for _, k := range kernels {
			for _, isa := range []ISA{ISAScalar, ISANEON, ISASSE2} {
				want := image.NewMat(res.Width, res.Height, k.kind)
				if err := k.run(NewOps(isa, nil), src, want); err != nil {
					t.Fatal(err)
				}
				for _, c := range configs {
					for _, b := range []byte{0xAA, 0x02} {
						var tr *trace.Counter
						if c.traced {
							tr = &trace.Counter{}
						}
						o := NewOps(isa, tr)
						o.SetParallel(ParallelConfig{Workers: c.workers, MinRowsPerBand: 1})
						o.SetFuse(c.fuse)
						got := image.NewMat(res.Width, res.Height, k.kind)
						poisonPool(res.Width, res.Height, b)
						if err := k.run(o, src, got); err != nil {
							t.Fatal(err)
						}
						if !want.EqualTo(got) {
							t.Fatalf("%s %dx%d %v %s, pool of %#x planes: %d pixels differ from fresh planes",
								k.name, res.Width, res.Height, isa, c.name, b, want.DiffCount(got, 0))
						}
					}
				}
			}
		}
	}

	// A fault injector can slip a store by one element and leave a hole in
	// a plane the Sobel passes write. The hole must read 0, as on fresh
	// planes, whatever the pool held: a pool of zero planes gives the
	// reference, and the same fault schedule over 0xAA and 0x02 planes
	// must give the same bytes.
	res := image.Resolution{Width: 61, Height: 53}
	src := image.Synthetic(res, 3)
	for _, k := range kernels {
		for _, isa := range []ISA{ISANEON, ISASSE2} {
			for _, c := range configs {
				var want *image.Mat
				for _, b := range []byte{0, 0xAA, 0x02} {
					var tr *trace.Counter
					if c.traced {
						tr = &trace.Counter{}
					}
					o := NewOps(isa, tr)
					o.SetParallel(ParallelConfig{Workers: c.workers, MinRowsPerBand: 1})
					o.SetFuse(c.fuse)
					plan := faults.NewPlan(faults.Config{Rate: 0.05, Seed: 11,
						Sites: []faults.Site{faults.SiteStore}, Kinds: []faults.Kind{faults.KindIndexSkew}})
					o.SetFaultInjector(plan)
					got := image.NewMat(res.Width, res.Height, k.kind)
					poisonPool(res.Width, res.Height, b)
					if err := k.run(o, src, got); err != nil {
						t.Fatal(err)
					}
					if plan.Injected() == 0 {
						t.Fatalf("%s %v %s: no store was skewed; the case exercises nothing", k.name, isa, c.name)
					}
					if want == nil {
						want = got
					} else if !want.EqualTo(got) {
						t.Fatalf("%s %v %s with skewed stores, pool of %#x planes: %d pixels differ from fresh planes",
							k.name, isa, c.name, b, want.DiffCount(got, 0))
					}
				}
			}
		}
	}
}

// satMag is the saturating chain the SIMD paths run: two saturating
// absolutes and a saturating add.
func satMag(gx, gy int16) int16 { return sat.AddInt16(sat.AbsInt16(gx), sat.AbsInt16(gy)) }

// combinePairs calls f on every x in int16 against the boundary values,
// both ways round, then on 10^6 seeded pairs.
func combinePairs(f func(gx, gy int16)) {
	for _, y := range []int16{-32768, -32767, -1, 0, 1, 32766, 32767} {
		for x := -32768; x <= 32767; x++ {
			f(int16(x), y)
			f(y, int16(x))
		}
	}
	r := rand.New(rand.NewPCG(1, 2))
	for range 1_000_000 {
		f(int16(r.Uint32()), int16(r.Uint32()))
	}
}

// TestMagMatchesSaturatingChain: the int32 magnitude and the threshold
// mask built on it agree with the saturating chain everywhere it can
// disagree: every gx against the int16 boundaries and a million seeded
// pairs, and the mask at thresholds -1 (every pixel an edge), 0 and 32767
// (none).
func TestMagMatchesSaturatingChain(t *testing.T) {
	bad := 0
	combinePairs(func(gx, gy int16) {
		want := satMag(gx, gy)
		if got := mag16(gx, gy); got != int32(want) && bad < 10 {
			bad++
			t.Errorf("mag16(%d, %d) = %d, saturating chain %d", gx, gy, got, want)
		}
		for _, th := range []int16{-1, 0, 32767} {
			var mask uint8
			if want > th {
				mask = 255
			}
			if got := magThreshPixel(gx, gy, th); got != mask && bad < 10 {
				bad++
				t.Errorf("magThreshPixel(%d, %d, %d) = %d, want %d", gx, gy, th, got, mask)
			}
		}
	})
}

// TestMagChunksMatchSaturatingChain: the banded chunk bodies of the
// magnitude and the scalar combine agree with the saturating chain on
// every element of odd-sized sub-ranges.
func TestMagChunksMatchSaturatingChain(t *testing.T) {
	const n = 5000
	r := rand.New(rand.NewPCG(3, 4))
	gx, gy := make([]int16, n), make([]int16, n)
	for i := range gx {
		gx[i], gy[i] = int16(r.Uint32()), int16(r.Uint32())
	}
	o := NewOps(ISAScalar, nil)
	for _, span := range [][2]int{{0, n}, {1, 4096}, {4095, 4999}, {17, 18}, {9, 9}} {
		lo, hi := span[0], span[1]
		mag := make([]int16, n)
		cannyMagChunk(o, cannyMagArgs{gx, gy, mag}, lo, hi)
		for _, th := range []int16{-1, 0, 200, 32767} {
			d := make([]uint8, n)
			magThreshScalarChunk(o, magThreshArgs{gx: gx, gy: gy, d: d, thresh: th}, lo, hi)
			for i := range n {
				var wantM int16
				var wantD uint8
				if i >= lo && i < hi {
					wantM = satMag(gx[i], gy[i])
					if wantM > th {
						wantD = 255
					}
				}
				if mag[i] != wantM || d[i] != wantD {
					t.Fatalf("[%d, %d) threshold %d, element %d: mag %d mask %d, want %d %d", lo, hi, th, i, mag[i], d[i], wantM, wantD)
				}
			}
		}
	}
}

// TestNMSNeverMarksBorder: non-maximum suppression writes every marker of
// its row, 0, 1 or 2, and leaves the plane's border rows and columns
// unmarked whatever the gradients.
func TestNMSNeverMarksBorder(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	for _, res := range [][2]int{{1, 1}, {2, 5}, {3, 3}, {4, 2}, {17, 9}, {64, 31}} {
		w, h := res[0], res[1]
		gx, gy, mag := make([]int16, w*h), make([]int16, w*h), make([]int16, w*h)
		for i := range gx {
			gx[i], gy[i] = int16(r.IntN(2001)-1000), int16(r.IntN(2001)-1000)
			mag[i] = satMag(gx[i], gy[i])
		}
		nms := make([]uint8, w*h)
		for i := range nms {
			nms[i] = 0xAA
		}
		o := NewOps(ISAScalar, nil)
		a := cannyNMSArgs{gx: gx, gy: gy, mag: mag, nms: nms, w: w, h: h, low: 0, high: 600}
		marked := 0
		for y := 0; y < h; y++ {
			cannyNMSRow(o, a, y)
			for x := 0; x < w; x++ {
				v := nms[y*w+x]
				if v > 2 {
					t.Fatalf("%dx%d: pixel (%d, %d) left %#x", w, h, x, y, v)
				}
				if v != 0 {
					marked++
					if x == 0 || x == w-1 || y == 0 || y == h-1 {
						t.Fatalf("%dx%d: border pixel (%d, %d) marked %d", w, h, x, y, v)
					}
				}
			}
		}
		if w >= 17 && marked == 0 {
			t.Fatalf("%dx%d: nothing marked; the test exercises nothing", w, h)
		}
	}
}
