// Package image provides the image container and synthetic workload
// generator for the benchmark suite.
//
// The paper's experiments use uncompressed bitmap photographs at four
// resolutions common to mobile cameras: 640x480 (0.3 Mpx), 1280x960 (1 Mpx),
// 2592x1920 (5 Mpx) and 3264x2448 (8 Mpx), cycling through 5 distinct images
// per resolution to defeat caching. We do not have the authors' photographs,
// so this package generates deterministic synthetic images with
// natural-image statistics (smooth gradients plus correlated noise plus
// edges); the benchmark kernels are control-flow independent of pixel
// values, so only the sizes and memory traffic matter for timing, which the
// sizes preserve exactly.
//
// SynthesizeInto is the one generator behind Synthetic and SyntheticF32.
// It fills any row band on its own (xorshift jump-ahead plus stitched
// noise-chain seams, see synth.go), so a caller can spread one image over
// several cores and still get the one-band bytes exactly.
package image

import (
	"fmt"
)

// Resolution identifies one of the paper's four image sizes.
type Resolution struct {
	Width, Height int
	Name          string // e.g. "640x480"
	Megapixels    float64
}

// The four resolutions of Section III-D.
var (
	Res03MP = Resolution{640, 480, "640x480", 0.3}
	Res1MP  = Resolution{1280, 960, "1280x960", 1.2}
	Res5MP  = Resolution{2592, 1920, "2592x1920", 5.0}
	Res8MP  = Resolution{3264, 2448, "3264x2448", 8.0}
)

// Resolutions lists the paper's image sizes smallest first.
var Resolutions = []Resolution{Res03MP, Res1MP, Res5MP, Res8MP}

// Pixels returns the pixel count.
func (r Resolution) Pixels() int { return r.Width * r.Height }

// ParseResolution parses a "WxH" string (e.g. "640x480") into a
// Resolution, rejecting non-positive or absurd dimensions. It accepts the
// paper's named sizes and arbitrary sizes alike, so CLI size flags flow
// through one validated path.
func ParseResolution(s string) (Resolution, error) {
	for _, r := range Resolutions {
		if r.Name == s {
			return r, nil
		}
	}
	parseInt := func(t string) (int, bool) {
		if t == "" || len(t) > 7 {
			return 0, false
		}
		n := 0
		for _, c := range t {
			if c < '0' || c > '9' {
				return 0, false
			}
			n = n*10 + int(c-'0')
		}
		return n, true
	}
	sep := -1
	for i, c := range s {
		if c == 'x' {
			sep = i
			break
		}
	}
	if sep < 0 {
		return Resolution{}, fmt.Errorf("image: resolution %q is not WxH", s)
	}
	w, okW := parseInt(s[:sep])
	h, okH := parseInt(s[sep+1:])
	if !okW || !okH || w <= 0 || h <= 0 || w > 1<<16 || h > 1<<16 {
		return Resolution{}, fmt.Errorf("image: invalid resolution %q", s)
	}
	return Resolution{
		Width: w, Height: h, Name: s,
		Megapixels: float64(w) * float64(h) / 1e6,
	}, nil
}

// Type is the element type of a Mat, mirroring OpenCV's depth codes.
type Type int

// Element types used by the benchmarks.
const (
	U8  Type = iota // CV_8U: unsigned byte pixels
	S16             // CV_16S: signed short, filter outputs
	F32             // CV_32F: float, intermediate format
)

// Size returns the element size in bytes.
func (t Type) Size() int {
	switch t {
	case U8:
		return 1
	case S16:
		return 2
	case F32:
		return 4
	}
	panic(fmt.Sprintf("image: unknown type %d", int(t)))
}

// String returns the OpenCV-style name.
func (t Type) String() string {
	switch t {
	case U8:
		return "8U"
	case S16:
		return "16S"
	case F32:
		return "32F"
	}
	return fmt.Sprintf("type(%d)", int(t))
}

// Mat is a single-channel 2-D image with row-major storage, the minimal
// analogue of OpenCV's cv::Mat used by the benchmark kernels. Exactly one
// of the typed planes (U8Pix, S16Pix, F32Pix) is non-nil, matching Type.
type Mat struct {
	Width  int
	Height int
	Kind   Type

	U8Pix  []uint8
	S16Pix []int16
	F32Pix []float32
}

// TryNewMat allocates a zeroed image, returning an error for non-positive
// dimensions or an unknown element type. Use it wherever the dimensions
// come from external input (CLI flags, decoded file headers).
func TryNewMat(width, height int, kind Type) (*Mat, error) {
	if width <= 0 || height <= 0 {
		return nil, fmt.Errorf("image: invalid dimensions %dx%d", width, height)
	}
	m := &Mat{Width: width, Height: height, Kind: kind}
	n := width * height
	switch kind {
	case U8:
		m.U8Pix = make([]uint8, n)
	case S16:
		m.S16Pix = make([]int16, n)
	case F32:
		m.F32Pix = make([]float32, n)
	default:
		return nil, fmt.Errorf("image: unknown type %d", int(kind))
	}
	return m, nil
}

// NewMat allocates a zeroed image, panicking on invalid arguments. It is
// the constructor for dimensions the program itself computed; external
// input goes through TryNewMat.
func NewMat(width, height int, kind Type) *Mat {
	m, err := TryNewMat(width, height, kind)
	if err != nil {
		panic(err.Error())
	}
	return m
}

// Pixels returns the number of pixels.
func (m *Mat) Pixels() int { return m.Width * m.Height }

// Bytes returns the storage size in bytes.
func (m *Mat) Bytes() int { return m.Pixels() * m.Kind.Size() }

// Clear zeroes every plane in place, restoring the state NewMat
// guarantees. Callers that took a Mat on the overwrite-only fast path
// (par.GetMatForOverwrite) use it before handing the Mat to a kernel
// that assumes zero initialization.
func (m *Mat) Clear() {
	clear(m.U8Pix)
	clear(m.S16Pix)
	clear(m.F32Pix)
}

// Rows returns a view of rows [r0, r1): a Mat header over m's own pixel
// storage, so writes through either are visible in both. It panics when
// the range falls outside the image.
func (m *Mat) Rows(r0, r1 int) *Mat {
	v := &Mat{Width: m.Width, Height: r1 - r0, Kind: m.Kind}
	lo, hi := r0*m.Width, r1*m.Width
	switch m.Kind {
	case U8:
		v.U8Pix = m.U8Pix[lo:hi]
	case S16:
		v.S16Pix = m.S16Pix[lo:hi]
	case F32:
		v.F32Pix = m.F32Pix[lo:hi]
	}
	return v
}

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Width, m.Height, m.Kind)
	switch m.Kind {
	case U8:
		copy(c.U8Pix, m.U8Pix)
	case S16:
		copy(c.S16Pix, m.S16Pix)
	case F32:
		copy(c.F32Pix, m.F32Pix)
	}
	return c
}

// EqualTo reports whether two images have identical dimensions, type and
// pixel content.
func (m *Mat) EqualTo(o *Mat) bool {
	if m.Width != o.Width || m.Height != o.Height || m.Kind != o.Kind {
		return false
	}
	switch m.Kind {
	case U8:
		for i := range m.U8Pix {
			if m.U8Pix[i] != o.U8Pix[i] {
				return false
			}
		}
	case S16:
		for i := range m.S16Pix {
			if m.S16Pix[i] != o.S16Pix[i] {
				return false
			}
		}
	case F32:
		for i := range m.F32Pix {
			if m.F32Pix[i] != o.F32Pix[i] {
				return false
			}
		}
	}
	return true
}

// DiffCount returns the number of differing pixels between two images of
// identical shape, useful in tolerance-based comparisons between
// differently-rounded implementations.
func (m *Mat) DiffCount(o *Mat, tol int) int {
	if m.Width != o.Width || m.Height != o.Height || m.Kind != o.Kind {
		return m.Pixels()
	}
	n := 0
	switch m.Kind {
	case U8:
		for i := range m.U8Pix {
			d := int(m.U8Pix[i]) - int(o.U8Pix[i])
			if d < -tol || d > tol {
				n++
			}
		}
	case S16:
		for i := range m.S16Pix {
			d := int(m.S16Pix[i]) - int(o.S16Pix[i])
			if d < -tol || d > tol {
				n++
			}
		}
	case F32:
		for i := range m.F32Pix {
			d := float64(m.F32Pix[i]) - float64(o.F32Pix[i])
			if d < -float64(tol) || d > float64(tol) {
				n++
			}
		}
	}
	return n
}

// rng is a small deterministic PRNG (xorshift64*), used instead of
// math/rand so the synthetic workload is reproducible byte-for-byte across
// Go versions.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s = xsStep(r.s)
	return r.s * xsMul
}

// byteVal returns a uniform byte.
func (r *rng) byteVal() uint8 { return uint8(r.next() >> 56) }

// Burst generates the paper's workload for one resolution: n distinct
// images cycled in succession to minimize cache reuse between runs.
func Burst(res Resolution, n int) []*Mat {
	out := make([]*Mat, n)
	for i := range out {
		out[i] = Synthetic(res, uint64(i+1))
	}
	return out
}

// BurstF32 is Burst for float-typed source images.
func BurstF32(res Resolution, n int) []*Mat {
	out := make([]*Mat, n)
	for i := range out {
		out[i] = SyntheticF32(res, uint64(i+1))
	}
	return out
}
