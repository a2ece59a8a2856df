package integrity

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"simdstudy/internal/image"
)

// fuzzMat decodes data as a little-endian plane of kind (U8, S16 or F32,
// chosen by kindSel) and shapes it to width 1+wSel%n, dropping the
// elements past the last whole row.
func fuzzMat(data []byte, kindSel, wSel uint8) *image.Mat {
	kinds := []image.Type{image.U8, image.S16, image.F32}
	sizes := []int{1, 2, 4}
	k := int(kindSel) % len(kinds)
	n := len(data) / sizes[k]
	m := &image.Mat{Kind: kinds[k]}
	if n == 0 {
		return m
	}
	m.Width = 1 + int(wSel)%n
	m.Height = n / m.Width
	n = m.Width * m.Height
	switch m.Kind {
	case image.U8:
		m.U8Pix = append([]uint8(nil), data[:n]...)
	case image.S16:
		m.S16Pix = make([]int16, n)
		for i := range m.S16Pix {
			m.S16Pix[i] = int16(binary.LittleEndian.Uint16(data[2*i:]))
		}
	case image.F32:
		m.F32Pix = make([]float32, n)
		for i := range m.F32Pix {
			m.F32Pix[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
	}
	return m
}

// FuzzChecksumVerify exercises SumMat/VerifyMat, the plane checksums the
// pool scrubber and the memo layer rely on, over U8, S16 and F32 planes
// built from hostile bytes (NaN and Inf payloads included). Properties
// pinned down:
//
//   - a SumMat fingerprint self-verifies;
//   - any single bit flip in the plane is caught and localized to the block
//     holding the flipped element (each FNV-1a step is a bijection in the
//     running hash, so one flipped input bit always changes its block's sum);
//   - a plane one element shorter or longer is caught as length skew.
func FuzzChecksumVerify(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0), uint16(0))
	f.Add([]byte("hello, plane"), uint8(0), uint8(3), uint8(1), uint16(3))
	f.Add(bytes.Repeat([]byte{0xAB}, 5000), uint8(1), uint8(40), uint8(16), uint16(4999))
	f.Add(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(
		[]byte("fingerprint the fingerprint!"), 0x7fc00001), 0xff800000), // NaN, -Inf
		uint8(2), uint8(2), uint8(2), uint16(77))
	f.Fuzz(func(t *testing.T, data []byte, kindSel, wSel, blockRows uint8, pos uint16) {
		m := fuzzMat(data, kindSel, wSel)
		ps := SumMat(m, int(blockRows))
		if err := ps.VerifyMat(m); err != nil {
			t.Fatalf("self-verify failed: %v", err)
		}

		n := len(m.U8Pix) + len(m.S16Pix) + len(m.F32Pix)
		if n > 0 {
			i, bit := int(pos)%n, uint(pos/8)
			switch m.Kind {
			case image.U8:
				m.U8Pix[i] ^= 1 << (bit % 8)
			case image.S16:
				m.S16Pix[i] ^= 1 << (bit % 16)
			case image.F32:
				m.F32Pix[i] = math.Float32frombits(math.Float32bits(m.F32Pix[i]) ^ 1<<(bit%32))
			}
			var ce *ChecksumError
			if err := ps.VerifyMat(m); !errors.As(err, &ce) {
				t.Fatalf("bit flip at element %d undetected: %v", i, err)
			} else if i < ce.Lo || i >= ce.Hi {
				t.Fatalf("bit flip at element %d localized to [%d,%d)", i, ce.Lo, ce.Hi)
			}
		}

		m = fuzzMat(data, kindSel, wSel)
		grown := &image.Mat{Kind: m.Kind, Width: m.Width, Height: m.Height,
			U8Pix: append(m.U8Pix, 0), S16Pix: append(m.S16Pix, 0), F32Pix: append(m.F32Pix, 0)}
		var ce *ChecksumError
		if err := ps.VerifyMat(grown); !errors.As(err, &ce) || ce.Block != -1 {
			t.Fatalf("extension by one element undetected: %v", err)
		}
		if n > 0 {
			switch m.Kind {
			case image.U8:
				m.U8Pix = m.U8Pix[:n-1]
			case image.S16:
				m.S16Pix = m.S16Pix[:n-1]
			case image.F32:
				m.F32Pix = m.F32Pix[:n-1]
			}
			if err := ps.VerifyMat(m); !errors.As(err, &ce) || ce.Block != -1 {
				t.Fatalf("truncation by one element undetected: %v", err)
			}
		}
	})
}
