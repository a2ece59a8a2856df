package image

import "fmt"

// RGB is a 3-channel interleaved color image (R,G,B byte triplets in
// row-major order), the layout camera pipelines hand to color-conversion
// kernels. It exists to exercise NEON's structured vld3/vst3 loads, which
// the paper's Section II-C singles out as a NEON capability SSE2 lacks.
type RGB struct {
	Width  int
	Height int
	Pix    []uint8 // len = 3*Width*Height
}

// NewRGB allocates a zeroed color image, panicking on non-positive
// dimensions.
func NewRGB(width, height int) *RGB {
	if width <= 0 || height <= 0 {
		panic(fmt.Sprintf("image: invalid dimensions %dx%d", width, height))
	}
	return &RGB{Width: width, Height: height, Pix: make([]uint8, 3*width*height)}
}

// Pixels returns the pixel count.
func (m *RGB) Pixels() int { return m.Width * m.Height }

// Rows returns a view of rows [r0, r1) sharing m's pixel storage.
func (m *RGB) Rows(r0, r1 int) *RGB {
	return &RGB{Width: m.Width, Height: r1 - r0, Pix: m.Pix[3*r0*m.Width : 3*r1*m.Width]}
}

// Set stores the (r,g,b) triplet at (x,y).
func (m *RGB) Set(x, y int, r, g, b uint8) {
	i := 3 * (y*m.Width + x)
	m.Pix[i], m.Pix[i+1], m.Pix[i+2] = r, g, b
}

// EqualTo reports pixel-exact equality.
func (m *RGB) EqualTo(o *RGB) bool {
	if m.Width != o.Width || m.Height != o.Height {
		return false
	}
	for i := range m.Pix {
		if m.Pix[i] != o.Pix[i] {
			return false
		}
	}
	return true
}

// SyntheticRGB generates a deterministic color image whose channels carry
// distinct structure (so color-conversion kernels cannot pass tests by
// reading just one channel).
func SyntheticRGB(res Resolution, seed uint64) *RGB {
	m := NewRGB(res.Width, res.Height)
	r := newRNG(seed*0xC2B2AE35 + 3)
	for y := 0; y < res.Height; y++ {
		for x := 0; x < res.Width; x++ {
			base := uint8((x*255)/res.Width) >> 1
			red := base + r.byteVal()%64
			green := uint8((y*255)/res.Height)>>1 + r.byteVal()%64
			blue := 255 - base - r.byteVal()%32
			m.Set(x, y, red, green, blue)
		}
	}
	return m
}
