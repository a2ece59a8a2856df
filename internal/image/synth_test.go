package image

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// refSynthetic is the serial generator SynthesizeInto replaced, kept
// verbatim as the plain reference the banded generator must reproduce
// byte for byte.
func refSynthetic(res Resolution, seed uint64) *Mat {
	w := res.Width
	m := NewMat(w, res.Height, U8)
	r := newRNG(seed*0x9E3779B9 + 1)
	gx := int(r.next()%5) + 1
	gy := int(r.next()%5) + 1
	edgePeriod := int(r.next()%97) + 32
	noiseAmp := int(r.next()%24) + 8
	col := make([]int, w)
	for x := range col {
		col[x] = (x * gx * 255) / (w * gx)
		if (x/edgePeriod)%2 == 1 {
			col[x] += 128
		}
	}
	var noise [256]int
	for b := range noise {
		noise[b] = int(uint8(b)%uint8(noiseAmp)) - noiseAmp/2
	}
	s := r.s
	prev := 0
	for y := 0; y < res.Height; y++ {
		rowBase := (y * gy * 255) / (res.Height * gy)
		row := m.U8Pix[y*w : (y+1)*w]
		for x, c := range col {
			s ^= s >> 12
			s ^= s << 25
			s ^= s >> 27
			prev = (prev + noise[(s*0x2545F4914F6CDD1D)>>56]) / 2
			v := (rowBase+c)>>1 + prev
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			row[x] = uint8(v)
		}
	}
	return m
}

// refSyntheticF32 is the serial float generator SynthesizeInto replaced.
func refSyntheticF32(res Resolution, seed uint64) *Mat {
	m := NewMat(res.Width, res.Height, F32)
	r := newRNG(seed*0x85EBCA6B + 7)
	for i := range m.F32Pix {
		u := r.next()
		switch u % 64 {
		case 0:
			m.F32Pix[i] = float32(int32(u >> 32))
		default:
			m.F32Pix[i] = float32(u%51200)/100.0 - 256.0
		}
	}
	return m
}

// Band execution orders the tests drive SynthesizeInto with.
const (
	orderForward = iota
	orderReverse
	orderConcurrent
	numOrders
)

// runOrder returns a band runner that executes bands in the given order.
func runOrder(order int) func(n int, band func(i int)) {
	return func(n int, band func(i int)) {
		switch order {
		case orderForward:
			for i := 0; i < n; i++ {
				band(i)
			}
		case orderReverse:
			for i := n - 1; i >= 0; i-- {
				band(i)
			}
		default:
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					band(i)
				}()
			}
			wg.Wait()
		}
	}
}

// checkSynthesize fills a plane pre-filled with garbage through
// SynthesizeInto and compares it bit for bit with the reference.
func checkSynthesize(t *testing.T, kind Type, w, h int, seed uint64, bands, order int) {
	t.Helper()
	res := Resolution{Width: w, Height: h}
	m := NewMat(w, h, kind)
	var want *Mat
	if kind == F32 {
		for i := range m.F32Pix {
			m.F32Pix[i] = float32(math.NaN())
		}
		want = refSyntheticF32(res, seed)
	} else {
		for i := range m.U8Pix {
			m.U8Pix[i] = 0xAA
		}
		want = refSynthetic(res, seed)
	}
	SynthesizeInto(m, seed, bands, runOrder(order))
	if kind == F32 {
		for i, v := range m.F32Pix {
			if math.Float32bits(v) != math.Float32bits(want.F32Pix[i]) {
				t.Fatalf("F32 %dx%d seed %d bands %d order %d: pixel %d = %v, want %v",
					w, h, seed, bands, order, i, v, want.F32Pix[i])
			}
		}
		return
	}
	for i, v := range m.U8Pix {
		if v != want.U8Pix[i] {
			t.Fatalf("U8 %dx%d seed %d bands %d order %d: pixel %d = %d, want %d",
				w, h, seed, bands, order, i, v, want.U8Pix[i])
		}
	}
}

// TestSynthesizeMatchesReference covers the shapes, seeds and band counts
// the banded generator was sized on, in every execution order.
func TestSynthesizeMatchesReference(t *testing.T) {
	shapes := [][2]int{{640, 480}, {17, 3}, {1, 1}, {33, 65}, {1, 40}, {5, 9}}
	if !testing.Short() {
		shapes = append(shapes, [2]int{2592, 1920})
	}
	for _, sh := range shapes {
		for seed := uint64(0); seed < 6; seed++ {
			for _, bands := range []int{1, 2, 3, 7} {
				for _, kind := range []Type{U8, F32} {
					checkSynthesize(t, kind, sh[0], sh[1], seed, bands, (int(seed)+bands)%numOrders)
				}
			}
		}
	}
}

// TestSynthesizeOnePixelSegments is the worst case for the seam stitch:
// 64 one-row bands of a one-pixel-wide image give one-pixel (and empty)
// segments, so every repair runs off its segment's end and carries the
// true noise value on to the next seam.
func TestSynthesizeOnePixelSegments(t *testing.T) {
	for seed := uint64(0); seed < 32; seed++ {
		for order := 0; order < numOrders; order++ {
			checkSynthesize(t, U8, 1, 64, seed, 64, order)
			checkSynthesize(t, F32, 1, 64, seed, 64, order)
		}
	}
}

// TestXSJump holds the GF(2) jump-ahead to plain xorshift64 stepping.
func TestXSJump(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		s := rnd.Uint64() | 1
		for _, k := range []uint64{0, 1, 63, 64, 65, 1000, 307200} {
			want := s
			for i := uint64(0); i < k; i++ {
				want = xsStep(want)
			}
			if got := xsJump(s, k); got != want {
				t.Fatalf("xsJump(%#x, %d) = %#x, want %#x", s, k, got, want)
			}
		}
	}
}

// FuzzSynthesize: any shape, seed, band count and band execution order
// gives the reference bytes, whatever the plane held before.
func FuzzSynthesize(f *testing.F) {
	f.Add(false, uint16(640), uint8(48), uint64(1), uint8(2), uint8(orderForward))
	f.Add(true, uint16(33), uint8(64), uint64(5), uint8(7), uint8(orderReverse))
	f.Add(false, uint16(1), uint8(64), uint64(0), uint8(9), uint8(orderConcurrent))
	f.Add(false, uint16(300), uint8(1), uint64(3), uint8(3), uint8(orderForward))
	f.Fuzz(func(t *testing.T, f32 bool, w uint16, h uint8, seed uint64, bands, order uint8) {
		kind := U8
		if f32 {
			kind = F32
		}
		checkSynthesize(t, kind, 1+int(w)%300, 1+int(h)%64, seed, 1+int(bands)%9, int(order)%numOrders)
	})
}
