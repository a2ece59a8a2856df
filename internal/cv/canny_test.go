package cv

import (
	"testing"

	"simdstudy/internal/image"
	"simdstudy/internal/trace"
)

func TestCannyDetectsCleanEdge(t *testing.T) {
	// A vertical step: Canny must produce a thin vertical edge line.
	w, h := 48, 24
	src := image.NewMat(w, h, image.U8)
	for y := 0; y < h; y++ {
		for x := w / 2; x < w; x++ {
			src.U8Pix[y*w+x] = 200
		}
	}
	dst := image.NewMat(w, h, image.U8)
	o := NewOps(ISANEON, nil)
	if err := o.Canny(src, dst, 100, 300); err != nil {
		t.Fatal(err)
	}
	// Interior rows: exactly one edge column (thin response), at the step.
	for y := 2; y < h-2; y++ {
		lit := 0
		for x := 0; x < w; x++ {
			if dst.U8Pix[y*w+x] == 255 {
				lit++
				if x < w/2-2 || x > w/2+1 {
					t.Fatalf("row %d: edge at column %d, step is at %d", y, x, w/2)
				}
			}
		}
		if lit != 1 {
			t.Fatalf("row %d: %d edge pixels, want thin single response", y, lit)
		}
	}
}

func TestCannyHysteresisLinksWeakEdges(t *testing.T) {
	// A ramp edge whose gradient is strong in the middle rows and weak at
	// the top/bottom: without hysteresis the weak parts vanish; with it,
	// connected weak pixels survive.
	w, h := 32, 32
	src := image.NewMat(w, h, image.U8)
	for y := 0; y < h; y++ {
		step := uint8(60) // weak gradient rows
		if y > 10 && y < 20 {
			step = 250 // strong gradient rows
		}
		for x := w / 2; x < w; x++ {
			src.U8Pix[y*w+x] = step
		}
	}
	dst := image.NewMat(w, h, image.U8)
	o := NewOps(ISAScalar, nil)
	// Weak rows produce |gx| up to 4*60=240; strong rows 4*250=1000.
	if err := o.Canny(src, dst, 200, 800); err != nil {
		t.Fatal(err)
	}
	weakRowLit := false
	for x := 0; x < w; x++ {
		if dst.U8Pix[5*w+x] == 255 {
			weakRowLit = true
		}
	}
	if !weakRowLit {
		t.Fatal("hysteresis should propagate along the connected weak edge")
	}

	// Re-run with the low threshold above the weak response: weak rows
	// must now stay dark.
	if err := o.Canny(src, dst, 500, 800); err != nil {
		t.Fatal(err)
	}
	for x := 0; x < w; x++ {
		if dst.U8Pix[5*w+x] == 255 {
			t.Fatal("weak edge below low threshold must not appear")
		}
	}
}

func TestCannyAllPathsAgree(t *testing.T) {
	res := image.Resolution{Width: 130, Height: 41}
	src := image.Synthetic(res, 12)
	want := image.NewMat(res.Width, res.Height, image.U8)
	if err := NewOps(ISAScalar, nil).Canny(src, want, 150, 400); err != nil {
		t.Fatal(err)
	}
	for _, isa := range []ISA{ISANEON, ISASSE2} {
		got := image.NewMat(res.Width, res.Height, image.U8)
		if err := NewOps(isa, nil).Canny(src, got, 150, 400); err != nil {
			t.Fatal(err)
		}
		if !want.EqualTo(got) {
			t.Errorf("%v: %d pixels differ", isa, want.DiffCount(got, 0))
		}
	}
}

func TestCannyBinaryAndQuietOnFlat(t *testing.T) {
	src := image.NewMat(40, 40, image.U8)
	for i := range src.U8Pix {
		src.U8Pix[i] = 77
	}
	dst := image.NewMat(40, 40, image.U8)
	if err := NewOps(ISANEON, nil).Canny(src, dst, 50, 150); err != nil {
		t.Fatal(err)
	}
	for i, v := range dst.U8Pix {
		if v != 0 {
			t.Fatalf("flat image produced edge at %d", i)
		}
	}
	// Binary output on a real image.
	res := image.Resolution{Width: 150, Height: 40}
	nat := image.Synthetic(res, 3)
	out := image.NewMat(res.Width, res.Height, image.U8)
	if err := NewOps(ISASSE2, nil).Canny(nat, out, 100, 300); err != nil {
		t.Fatal(err)
	}
	for i, v := range out.U8Pix {
		if v != 0 && v != 255 {
			t.Fatalf("non-binary output %d at %d", v, i)
		}
	}
}

func TestCannyErrors(t *testing.T) {
	o := NewOps(ISAScalar, nil)
	u := image.NewMat(8, 8, image.U8)
	f := image.NewMat(8, 8, image.F32)
	if err := o.Canny(f, u, 1, 2); err == nil {
		t.Error("F32 src should fail")
	}
	if err := o.Canny(u, f, 1, 2); err == nil {
		t.Error("F32 dst should fail")
	}
	if err := o.Canny(u, image.NewMat(4, 4, image.U8), 1, 2); err == nil {
		t.Error("shape mismatch should fail")
	}
	if err := o.Canny(u, u, 5, 2); err == nil {
		t.Error("low > high should fail")
	}
	if err := o.Canny(u, u, -1, 2); err == nil {
		t.Error("negative low should fail")
	}
}

// TestCannyAmdahlStory pins the related-work observation: because NMS and
// hysteresis stay scalar, the SIMD fraction of Canny's instruction stream
// is far smaller than DetectEdges' — which is why the citation reports
// only 1.6x for Canny vs 3.1x for plain Sobel.
func TestCannyAmdahlStory(t *testing.T) {
	res := image.Resolution{Width: 128, Height: 64}
	src := image.Synthetic(res, 5)

	var canny trace.Counter
	o := NewOps(ISANEON, &canny)
	if err := o.Canny(src, image.NewMat(res.Width, res.Height, image.U8), 100, 300); err != nil {
		t.Fatal(err)
	}
	var edges trace.Counter
	o2 := NewOps(ISANEON, &edges)
	if err := o2.DetectEdges(src, image.NewMat(res.Width, res.Height, image.U8), 100); err != nil {
		t.Fatal(err)
	}
	cannySIMDFrac := float64(canny.SIMDTotal()) / float64(canny.Total())
	edgesSIMDFrac := float64(edges.SIMDTotal()) / float64(edges.Total())
	if cannySIMDFrac >= edgesSIMDFrac {
		t.Errorf("Canny SIMD fraction %.2f should trail DetectEdges' %.2f",
			cannySIMDFrac, edgesSIMDFrac)
	}
	if cannySIMDFrac <= 0 {
		t.Error("Canny's gradient stages must still use SIMD")
	}
}

// hysteresisWrapRef is the hysteresis traversal as it was written before
// the neighbour columns were derived from the popped pixel's: the column
// of every neighbour is j % w, and a neighbour more than one column away
// from x is a horizontal wrap. Kept as the reference for
// TestHysteresisMatchesWrapReference.
func hysteresisWrapRef(nms, dst []uint8, w, h int) (visits int) {
	n := w * h
	for i := range dst[:n] {
		dst[i] = 0
	}
	var stack []int
	for i, v := range nms[:n] {
		if v == 2 {
			stack = append(stack, i)
			dst[i] = 255
		}
	}
	neighbors := [8]int{-w - 1, -w, -w + 1, -1, 1, w - 1, w, w + 1}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		x := i % w
		for _, d := range neighbors {
			j := i + d
			if j < 0 || j >= n {
				continue
			}
			xj := j % w
			dx := x - xj
			if dx < -1 || dx > 1 {
				continue
			}
			visits++
			if nms[j] == 1 && dst[j] == 0 {
				dst[j] = 255
				stack = append(stack, j)
			}
		}
	}
	return visits
}

// TestHysteresisMatchesWrapReference: the traversal links the same pixels
// and examines the same number of neighbours (the count the trace
// records) as the per-neighbour wrap test it replaced, at widths 1 and 2,
// where that test never rejects a neighbour, and at 3, 8 and 641.
func TestHysteresisMatchesWrapReference(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8, 641} {
		for _, h := range []int{1, 2, 5, 37} {
			for seed := uint64(1); seed <= 4; seed++ {
				nms := make([]uint8, w*h)
				s := seed * 0x9E3779B97F4A7C15
				for i := range nms {
					s ^= s << 13
					s ^= s >> 7
					s ^= s << 17
					// Mostly weak pixels, so the traversal spreads far.
					nms[i] = [8]uint8{0, 1, 1, 1, 1, 1, 0, 2}[s%8]
				}
				got, want := make([]uint8, w*h), make([]uint8, w*h)
				gv, wv := hysteresis(nms, got, w, h), hysteresisWrapRef(nms, want, w, h)
				if gv != wv {
					t.Fatalf("%dx%d seed %d: %d neighbour visits, reference %d", w, h, seed, gv, wv)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%dx%d seed %d: pixel %d = %d, reference %d", w, h, seed, i, got[i], want[i])
					}
				}
			}
		}
	}
}
