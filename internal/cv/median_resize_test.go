package cv

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"simdstudy/internal/image"
	"simdstudy/internal/trace"
)

func TestMedian9Network(t *testing.T) {
	// The branch-free exchange network must agree with a sort-based median
	// on hand-picked inputs, every all-equal tuple, every two-valued tuple
	// over a few value pairs, and 10^5 seeded random tuples.
	cases := [][9]uint8{
		{1, 2, 3, 4, 5, 6, 7, 8, 9},
		{9, 8, 7, 6, 5, 4, 3, 2, 1},
		{0, 255, 0, 255, 0, 255, 0, 255, 0},
		{1, 1, 1, 2, 2, 2, 3, 3, 3},
		{200, 10, 30, 50, 90, 70, 110, 130, 150},
	}
	for v := 0; v < 256; v++ {
		cases = append(cases, [9]uint8{uint8(v), uint8(v), uint8(v), uint8(v), uint8(v), uint8(v), uint8(v), uint8(v), uint8(v)})
	}
	for _, lohi := range [][2]uint8{{0, 1}, {0, 255}, {127, 128}, {254, 255}} {
		for bits := 0; bits < 1<<9; bits++ {
			var c [9]uint8
			for i := range c {
				c[i] = lohi[bits>>i&1]
			}
			cases = append(cases, c)
		}
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100000; i++ {
		var c [9]uint8
		for j := range c {
			c[j] = uint8(rng.Intn(256))
		}
		cases = append(cases, c)
	}
	for _, c := range cases {
		sorted := c
		sort.Slice(sorted[:], func(i, j int) bool { return sorted[i] < sorted[j] })
		in := c
		if got := median9(&in); got != sorted[4] {
			t.Fatalf("median9(%v) = %d, want %d", c, got, sorted[4])
		}
	}
}

// Property: the network median equals the sort median for arbitrary bytes.
func TestQuickMedian9(t *testing.T) {
	f := func(c [9]uint8) bool {
		sorted := make([]uint8, 9)
		copy(sorted, c[:])
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		in := c
		return median9(&in) == sorted[4]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMedianBlurAllPathsAgree(t *testing.T) {
	res := image.Resolution{Width: 83, Height: 31} // odd: exercises tails
	src := image.Synthetic(res, 9)
	want := image.NewMat(res.Width, res.Height, image.U8)
	if err := NewOps(ISAScalar, nil).MedianBlur3x3Ctx(context.Background(), src, want); err != nil {
		t.Fatal(err)
	}
	for _, isa := range []ISA{ISANEON, ISASSE2} {
		got := image.NewMat(res.Width, res.Height, image.U8)
		if err := NewOps(isa, nil).MedianBlur3x3Ctx(context.Background(), src, got); err != nil {
			t.Fatal(err)
		}
		if !want.EqualTo(got) {
			t.Errorf("%v: %d pixels differ", isa, want.DiffCount(got, 0))
		}
	}
}

func TestMedianRemovesImpulseNoise(t *testing.T) {
	res := image.Resolution{Width: 48, Height: 32}
	src := image.NewMat(res.Width, res.Height, image.U8)
	for i := range src.U8Pix {
		src.U8Pix[i] = 100
	}
	// Salt-and-pepper speckles.
	src.U8Pix[10*48+10] = 255
	src.U8Pix[20*48+30] = 0
	dst := image.NewMat(res.Width, res.Height, image.U8)
	if err := NewOps(ISANEON, nil).MedianBlur3x3Ctx(context.Background(), src, dst); err != nil {
		t.Fatal(err)
	}
	if dst.U8Pix[10*48+10] != 100 || dst.U8Pix[20*48+30] != 100 {
		t.Error("median must remove isolated speckles")
	}
}

func TestMedianErrors(t *testing.T) {
	o := NewOps(ISAScalar, nil)
	u := image.NewMat(8, 8, image.U8)
	f := image.NewMat(8, 8, image.F32)
	if err := o.MedianBlur3x3Ctx(context.Background(), f, u); err == nil {
		t.Error("F32 src should fail")
	}
	if err := o.MedianBlur3x3Ctx(context.Background(), u, f); err == nil {
		t.Error("F32 dst should fail")
	}
	if err := o.MedianBlur3x3Ctx(context.Background(), u, image.NewMat(4, 4, image.U8)); err == nil {
		t.Error("shape mismatch should fail")
	}
}

func TestMedianVectorizesTo38OpsPerBlock(t *testing.T) {
	res := image.Resolution{Width: 66, Height: 4} // one 16-wide block per row region
	src := image.Synthetic(res, 3)
	dst := image.NewMat(res.Width, res.Height, image.U8)
	var tr trace.Counter
	if err := NewOps(ISANEON, &tr).MedianBlur3x3Ctx(context.Background(), src, dst); err != nil {
		t.Fatal(err)
	}
	// Per 16-pixel block: 9 loads + 38 min/max + 1 store.
	if tr.Opcode("vmin.u8") != tr.Opcode("vmax.u8") {
		t.Error("network must pair mins and maxes")
	}
	blocks := tr.Count(trace.SIMDStore)
	if tr.Opcode("vmin.u8") != 19*blocks {
		t.Errorf("19 comparators per block: %d mins for %d blocks",
			tr.Opcode("vmin.u8"), blocks)
	}
}

func TestResizeHalfAllPathsAgree(t *testing.T) {
	res := image.Resolution{Width: 86, Height: 34}
	src := image.Synthetic(res, 10)
	want := image.NewMat(res.Width/2, res.Height/2, image.U8)
	if err := NewOps(ISAScalar, nil).ResizeHalfCtx(context.Background(), src, want); err != nil {
		t.Fatal(err)
	}
	for _, isa := range []ISA{ISANEON, ISASSE2} {
		got := image.NewMat(res.Width/2, res.Height/2, image.U8)
		if err := NewOps(isa, nil).ResizeHalfCtx(context.Background(), src, got); err != nil {
			t.Fatal(err)
		}
		if !want.EqualTo(got) {
			t.Errorf("%v: %d pixels differ", isa, want.DiffCount(got, 0))
		}
	}
}

func TestResizeHalfSemantics(t *testing.T) {
	src := image.NewMat(4, 2, image.U8)
	copy(src.U8Pix, []uint8{
		10, 20, 0, 255,
		30, 40, 255, 0,
	})
	dst := image.NewMat(2, 1, image.U8)
	if err := NewOps(ISAScalar, nil).ResizeHalfCtx(context.Background(), src, dst); err != nil {
		t.Fatal(err)
	}
	if dst.U8Pix[0] != 25 { // (10+20+30+40+2)>>2 = 102>>2
		t.Errorf("box average: %d", dst.U8Pix[0])
	}
	if dst.U8Pix[1] != 128 { // (0+255+255+0+2)>>2 = 512>>2 = 128
		t.Errorf("box average 2: %d", dst.U8Pix[1])
	}
}

func TestResizeHalfPreservesFlat(t *testing.T) {
	src := image.NewMat(32, 32, image.U8)
	for i := range src.U8Pix {
		src.U8Pix[i] = 99
	}
	dst := image.NewMat(16, 16, image.U8)
	if err := NewOps(ISASSE2, nil).ResizeHalfCtx(context.Background(), src, dst); err != nil {
		t.Fatal(err)
	}
	for _, v := range dst.U8Pix {
		if v != 99 {
			t.Fatal("flat image must stay flat")
		}
	}
}

func TestResizeHalfErrors(t *testing.T) {
	o := NewOps(ISAScalar, nil)
	src := image.NewMat(8, 8, image.U8)
	if err := o.ResizeHalfCtx(context.Background(), src, image.NewMat(3, 4, image.U8)); err == nil {
		t.Error("wrong dst shape should fail")
	}
	if err := o.ResizeHalfCtx(context.Background(), image.NewMat(8, 8, image.F32), image.NewMat(4, 4, image.U8)); err == nil {
		t.Error("F32 src should fail")
	}
	if err := o.ResizeHalfCtx(context.Background(), src, image.NewMat(4, 4, image.S16)); err == nil {
		t.Error("S16 dst should fail")
	}
}

// Property: resize then resize preserves the global mean within rounding.
func TestQuickResizePreservesMean(t *testing.T) {
	f := func(seed uint64) bool {
		res := image.Resolution{Width: 32, Height: 16}
		src := image.Synthetic(res, seed)
		dst := image.NewMat(16, 8, image.U8)
		if err := NewOps(ISANEON, nil).ResizeHalfCtx(context.Background(), src, dst); err != nil {
			return false
		}
		var srcSum, dstSum float64
		for _, v := range src.U8Pix {
			srcSum += float64(v)
		}
		for _, v := range dst.U8Pix {
			dstSum += float64(v)
		}
		srcMean := srcSum / float64(src.Pixels())
		dstMean := dstSum / float64(dst.Pixels())
		d := srcMean - dstMean
		if d < 0 {
			d = -d
		}
		return d < 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
