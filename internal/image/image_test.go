package image

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestResolutions(t *testing.T) {
	if Res8MP.Pixels() != 3264*2448 {
		t.Errorf("8MP pixels: %d", Res8MP.Pixels())
	}
	if len(Resolutions) != 4 {
		t.Fatal("expected four paper resolutions")
	}
	for i := 1; i < len(Resolutions); i++ {
		if Resolutions[i].Pixels() <= Resolutions[i-1].Pixels() {
			t.Error("resolutions must be sorted ascending")
		}
	}
	if Res03MP.Name != "640x480" {
		t.Errorf("name: %s", Res03MP.Name)
	}
}

func TestTypeSizes(t *testing.T) {
	if U8.Size() != 1 || S16.Size() != 2 || F32.Size() != 4 {
		t.Fatal("type sizes")
	}
	if U8.String() != "8U" || S16.String() != "16S" || F32.String() != "32F" {
		t.Fatal("type names")
	}
	if !strings.Contains(Type(99).String(), "99") {
		t.Fatal("unknown type string")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Size of unknown type should panic")
		}
	}()
	Type(99).Size()
}

func TestNewMat(t *testing.T) {
	m := NewMat(10, 5, S16)
	if m.Pixels() != 50 || m.Bytes() != 100 {
		t.Fatalf("pixels/bytes: %d/%d", m.Pixels(), m.Bytes())
	}
	if len(m.S16Pix) != 50 || m.U8Pix != nil || m.F32Pix != nil {
		t.Fatal("plane allocation")
	}
	for _, k := range []Type{U8, F32} {
		mm := NewMat(2, 2, k)
		if mm.Bytes() != 4*k.Size() {
			t.Fatal("bytes")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid dims should panic")
		}
	}()
	NewMat(0, 5, U8)
}

func TestCloneAndEqual(t *testing.T) {
	m := Synthetic(Resolution{64, 48, "64x48", 0}, 1)
	c := m.Clone()
	if !m.EqualTo(c) {
		t.Fatal("clone should be equal")
	}
	c.U8Pix[100]++
	if m.EqualTo(c) {
		t.Fatal("mutated clone should differ")
	}
	if m.DiffCount(c, 0) != 1 {
		t.Fatalf("diff count: %d", m.DiffCount(c, 0))
	}
	if m.DiffCount(c, 1) != 0 {
		t.Fatal("tolerance should absorb +-1")
	}
	other := NewMat(64, 48, S16)
	if m.EqualTo(other) {
		t.Fatal("different kinds are unequal")
	}
	if m.DiffCount(other, 0) != m.Pixels() {
		t.Fatal("shape mismatch diff count")
	}

	s := NewMat(4, 4, S16)
	s2 := s.Clone()
	s2.S16Pix[0] = 5
	if s.EqualTo(s2) || s.DiffCount(s2, 4) != 1 {
		t.Fatal("s16 equality")
	}
	f := NewMat(4, 4, F32)
	f2 := f.Clone()
	f2.F32Pix[0] = 100
	if f.EqualTo(f2) || f.DiffCount(f2, 1) != 1 {
		t.Fatal("f32 equality")
	}
	if !f.EqualTo(f.Clone()) || !s.EqualTo(s.Clone()) {
		t.Fatal("self equality")
	}
}

func TestSyntheticDeterministicAndDistinct(t *testing.T) {
	res := Resolution{128, 96, "128x96", 0}
	a1 := Synthetic(res, 3)
	a2 := Synthetic(res, 3)
	if !a1.EqualTo(a2) {
		t.Fatal("same seed must give identical images")
	}
	b := Synthetic(res, 4)
	if a1.EqualTo(b) {
		t.Fatal("different seeds must differ")
	}
	// Natural-statistics sanity: pixel histogram should not be flat or
	// constant; check we use a reasonable value spread.
	var hist [256]int
	for _, p := range a1.U8Pix {
		hist[p]++
	}
	nonzero := 0
	for _, h := range hist {
		if h > 0 {
			nonzero++
		}
	}
	if nonzero < 32 {
		t.Fatalf("synthetic image uses only %d distinct values", nonzero)
	}
}

func TestSyntheticF32HasSaturatingValues(t *testing.T) {
	m := SyntheticF32(Resolution{256, 128, "", 0}, 2)
	huge, inRange := 0, 0
	for _, v := range m.F32Pix {
		if v > 32767 || v < -32768 {
			huge++
		} else {
			inRange++
		}
	}
	if huge == 0 {
		t.Fatal("float workload must include values that saturate int16")
	}
	if inRange < huge {
		t.Fatal("most values should be in pixel range")
	}
}

func TestBurst(t *testing.T) {
	res := Resolution{32, 32, "", 0}
	b := Burst(res, 5)
	if len(b) != 5 {
		t.Fatal("burst length")
	}
	for i := 0; i < len(b); i++ {
		for j := i + 1; j < len(b); j++ {
			if b[i].EqualTo(b[j]) {
				t.Fatalf("burst images %d and %d identical", i, j)
			}
		}
	}
	fb := BurstF32(res, 3)
	if len(fb) != 3 || fb[0].Kind != F32 {
		t.Fatal("f32 burst")
	}
	if fb[0].EqualTo(fb[1]) {
		t.Fatal("f32 burst images identical")
	}
}

func TestPGMRoundTrip(t *testing.T) {
	m := Synthetic(Resolution{33, 17, "", 0}, 9) // odd sizes exercise header parsing
	var buf bytes.Buffer
	if err := WritePGM(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !m.EqualTo(back) {
		t.Fatal("PGM roundtrip altered pixels")
	}
}

func TestPGMRejectsNonU8(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePGM(&buf, NewMat(2, 2, F32)); err == nil {
		t.Fatal("expected error for F32")
	}
}

func TestPGMHeaderEdgeCases(t *testing.T) {
	// Comments and arbitrary whitespace are legal.
	data := "P5 # comment\n# another comment\n 3\t2 \n255\n" + "abcdef"
	m, err := ReadPGM(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if m.Width != 3 || m.Height != 2 || string(m.U8Pix) != "abcdef" {
		t.Fatalf("parsed %dx%d %q", m.Width, m.Height, m.U8Pix)
	}

	bad := []string{
		"P6\n3 2\n255\nabcdef",   // wrong magic
		"P5\n3 2\n128\nabcdef",   // unsupported maxval
		"P5\n3 2\n255\nabc",      // short pixel data
		"P5\nx 2\n255\nabcdef",   // non-numeric width
		"P5\n3 2\n",              // truncated header
		"P5\n0 2\n255\n",         // zero dimension
		"P5\n99999999 2\n255\n ", // unreasonable dimension
	}
	for i, s := range bad {
		if _, err := ReadPGM(strings.NewReader(s)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// Property: PGM roundtrip is the identity for arbitrary small images.
func TestQuickPGMRoundTrip(t *testing.T) {
	f := func(pix []byte, w8 uint8) bool {
		w := int(w8%16) + 1
		h := len(pix) / w
		if h == 0 {
			return true
		}
		m := NewMat(w, h, U8)
		copy(m.U8Pix, pix)
		var buf bytes.Buffer
		if err := WritePGM(&buf, m); err != nil {
			return false
		}
		back, err := ReadPGM(&buf)
		if err != nil {
			return false
		}
		return m.EqualTo(back)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := newRNG(0)
	if r.next() == 0 && r.next() == 0 {
		t.Fatal("zero seed must still produce values")
	}
}

func TestRGBBasics(t *testing.T) {
	m := NewRGB(4, 3)
	if m.Pixels() != 12 || len(m.Pix) != 36 {
		t.Fatal("rgb allocation")
	}
	m.Set(2, 1, 10, 20, 30)
	if i := 3 * (1*m.Width + 2); m.Pix[i] != 10 || m.Pix[i+1] != 20 || m.Pix[i+2] != 30 {
		t.Fatal("at/set")
	}
	c := NewRGB(4, 3)
	c.Set(2, 1, 10, 20, 30)
	if !m.EqualTo(c) {
		t.Fatal("equal")
	}
	c.Set(0, 0, 1, 0, 0)
	if m.EqualTo(c) {
		t.Fatal("unequal after mutation")
	}
	if m.EqualTo(NewRGB(3, 4)) {
		t.Fatal("shape mismatch")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid dims should panic")
		}
	}()
	NewRGB(0, 1)
}

func TestSyntheticRGBChannelsDiffer(t *testing.T) {
	res := Resolution{Width: 64, Height: 48}
	m := SyntheticRGB(res, 1)
	if m.EqualTo(SyntheticRGB(res, 2)) {
		t.Fatal("seeds must differ")
	}
	if !m.EqualTo(SyntheticRGB(res, 1)) {
		t.Fatal("same seed must repeat")
	}
	// Channels must carry distinct content.
	var dRG, dGB int
	for i := 0; i < len(m.Pix); i += 3 {
		if m.Pix[i] != m.Pix[i+1] {
			dRG++
		}
		if m.Pix[i+1] != m.Pix[i+2] {
			dGB++
		}
	}
	if dRG < m.Pixels()/2 || dGB < m.Pixels()/2 {
		t.Fatal("synthetic RGB channels too similar")
	}
}

// TestSyntheticChecksums pins Synthetic and SyntheticF32 byte for byte:
// FNV-64a sums of their output (SyntheticF32's as little-endian float32
// bits) over odd, tiny and paper-sized shapes and seeds 0-5. The U8 sums
// are those of the direct per-pixel formulation (two divisions and a
// modulo per pixel), which the table-driven generator must reproduce
// exactly: every served and benchmarked image derives from these two
// generators, and simdserved's memo keys a response on (kernel, ISA,
// parameters, geometry, seed) alone, so a generator change that slipped
// past this test would let a warm cache serve stale results.
func TestSyntheticChecksums(t *testing.T) {
	cases := []struct {
		w, h    int
		sums    [6]uint64 // Synthetic
		f32Sums [6]uint64 // SyntheticF32
	}{
		{640, 480,
			[6]uint64{0x943a143677774b2e, 0x503a354cedf6950f, 0xd240d169a3bba02c, 0xc40ff97e04aaab11, 0x99805909956e3629, 0x4b879fc3774b9109},
			[6]uint64{0x9ce521ebf0bde234, 0x2182b23f27779d86, 0x77a122883d1b0e75, 0xa8633f421d973992, 0x2fb752eb2d8a8f5a, 0xb718fa03a4e4f978}},
		{2592, 1920,
			[6]uint64{0x6427f92348b81623, 0xb8621fc21a4e5c82, 0xbef7d2508e30efc3, 0x790b9889b7cad686, 0x8327136d34e0a108, 0x4c47575cea760234},
			[6]uint64{0x09ea1adaa24cffb9, 0x17eb643a9497e448, 0xbedfe075ccf937c2, 0xa1d3e2335be95408, 0x7364dd1d9d5013a3, 0x0f1cb452abd79f3b}},
		{17, 3,
			[6]uint64{0x5f0dfeaaee9e6c4a, 0x35a7354d4c6d6589, 0x366f1178940f47c3, 0x42428fed49f2af03, 0x40400755082ffdd0, 0x5397884f8c79f5f7},
			[6]uint64{0x11554598ee507187, 0xd6eaafca3362a96f, 0x422d2dac9a069589, 0xa6570a135c4c0479, 0xebf88c02d5b35d74, 0xe63720d6e65c0f75}},
		{1, 1,
			[6]uint64{0xaf63bd4c8601b7df, 0xaf63bd4c8601b7df, 0xaf63bd4c8601b7df, 0xaf63ba4c8601b2c6, 0xaf63be4c8601b992, 0xaf63b94c8601b113},
			[6]uint64{0x30aad22a768591d0, 0x0e078de33c21eab9, 0xacafb4dae8d19ae0, 0xacefccdae907a79d, 0x1041a7b8880c23fd, 0xd3c896c9bb689bb1}},
		{33, 65,
			[6]uint64{0x21952776af2a16ed, 0xf09c958604490d54, 0x5af02f958f97f502, 0x617390e8e0fab124, 0x269157e606e084e8, 0x0866759d49ba06de},
			[6]uint64{0x686c4d08e12448e4, 0x1551ede75f4fdb9b, 0xc4ab8528441399a4, 0xc472f20f71353eff, 0x3d7970a3a00117ad, 0x344087beb30d1772}},
	}
	for _, c := range cases {
		res := Resolution{Width: c.w, Height: c.h}
		for seed := range c.sums {
			h := fnv.New64a()
			h.Write(Synthetic(res, uint64(seed)).U8Pix)
			if got, want := h.Sum64(), c.sums[seed]; got != want {
				t.Errorf("Synthetic %dx%d seed %d: fnv64a %#016x, want %#016x", c.w, c.h, seed, got, want)
			}
			h.Reset()
			var b [4]byte
			for _, v := range SyntheticF32(res, uint64(seed)).F32Pix {
				binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
				h.Write(b[:])
			}
			if got, want := h.Sum64(), c.f32Sums[seed]; got != want {
				t.Errorf("SyntheticF32 %dx%d seed %d: fnv64a %#016x, want %#016x", c.w, c.h, seed, got, want)
			}
		}
	}
}

// TestRowsViewsShareStorage: a row view covers exactly its rows and
// aliases the parent's pixels.
func TestRowsViewsShareStorage(t *testing.T) {
	m := Synthetic(Resolution{Width: 5, Height: 4}, 1)
	v := m.Rows(1, 3)
	if v.Width != 5 || v.Height != 2 || v.Kind != U8 || len(v.U8Pix) != 10 {
		t.Fatalf("view %dx%d %v len %d", v.Width, v.Height, v.Kind, len(v.U8Pix))
	}
	v.U8Pix[0] ^= 0xff
	if m.U8Pix[5] != v.U8Pix[0] {
		t.Error("Mat row view does not alias the parent plane")
	}
	f := NewMat(3, 3, F32).Rows(2, 3)
	if len(f.F32Pix) != 3 || f.U8Pix != nil {
		t.Errorf("F32 view: %d floats, U8 %v", len(f.F32Pix), f.U8Pix)
	}
	rgb := SyntheticRGB(Resolution{Width: 4, Height: 3}, 1)
	rv := rgb.Rows(2, 3)
	if rv.Height != 1 || len(rv.Pix) != 12 || &rv.Pix[0] != &rgb.Pix[24] {
		t.Error("RGB row view does not cover exactly row 2")
	}
}
