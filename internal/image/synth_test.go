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
	m, _, _ := refSyntheticClamps(res, seed)
	return m
}

// refSyntheticClamps is refSynthetic, also counting the pixels it clamps
// up to 0 (low) and down to 255 (high).
func refSyntheticClamps(res Resolution, seed uint64) (m *Mat, low, high int) {
	w := res.Width
	m = NewMat(w, res.Height, U8)
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
				low++
			}
			if v > 255 {
				v = 255
				high++
			}
			row[x] = uint8(v)
		}
	}
	return m, low, high
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
// the banded generator was sized on, in every execution order. At 64x8,
// seed 2 drives the clamp at both ends: its noise takes 2 pixels near the
// top-left corner below 0 and 37 in the raised columns of the lower rows
// above 255.
func TestSynthesizeMatchesReference(t *testing.T) {
	if _, low, high := refSyntheticClamps(Resolution{Width: 64, Height: 8}, 2); low == 0 || high == 0 {
		t.Fatalf("64x8 seed 2 clamps %d pixels low and %d high, want both ends reached", low, high)
	}
	shapes := [][2]int{{640, 480}, {17, 3}, {1, 1}, {33, 65}, {1, 40}, {5, 9}, {64, 8}}
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

// TestHalfTab holds the chain's halving table to the divide it replaces:
// for every noise value p and step d the chain can meet, both within ±15,
// halve of their offset forms is (p+d)/2 offset, truncated toward zero.
func TestHalfTab(t *testing.T) {
	for p := -15; p <= 15; p++ {
		for d := -15; d <= 15; d++ {
			if got, want := int(halve(uint(p+noiseBias), uint(d+noiseBias)))-noiseBias, (p+d)/2; got != want {
				t.Fatalf("halve(%d, %d) = %d, want %d", p, d, got, want)
			}
		}
	}
}

// TestClampTab holds the clamp table to the clamp it replaces, over its
// whole index range and over every gradient sum and noise value a pixel
// can meet: sums up to 254+382, noise within ±15. A row's slice of it
// (rowClamp) gives the same pixels for every row term below 255 and column
// term up to 382.
func TestClampTab(t *testing.T) {
	for i, v := range clampTab {
		if want := min(max(i>>1-noiseBias, 0), 255); int(v) != want {
			t.Fatalf("clampTab[%d] = %d, want %d", i, v, want)
		}
	}
	for base := 0; base <= 254+382; base++ {
		for p := -15; p <= 15; p++ {
			if got, want := pixel(uint(base), uint(p+noiseBias)), min(max(base>>1+p, 0), 255); int(got) != want {
				t.Fatalf("pixel(%d, %d) = %d, want %d", base, p, got, want)
			}
		}
	}
	for row := uint(0); row < 255; row++ {
		tab := rowClamp(row)
		for c := uint(0); c <= 382; c++ {
			for p := uint(noiseBias - 15); p <= noiseBias+15; p++ {
				if got, want := tab[(c+2*p)&511], pixel(row+c, p); got != want {
					t.Fatalf("rowClamp(%d)[%d+2*%d] = %d, want %d", row, c, p, got, want)
				}
			}
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
