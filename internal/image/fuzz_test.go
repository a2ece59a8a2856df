package image

import (
	"bytes"
	"testing"
)

// validPGM returns a well-formed P5 file for the seed corpus.
func validPGM() []byte {
	m := Synthetic(Resolution{Width: 8, Height: 6, Name: "8x6"}, 1)
	var buf bytes.Buffer
	if err := WritePGM(&buf, m); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzReadPGM: hostile, truncated, or giant-header inputs must return an
// error, never panic, and never allocate beyond the declared-pixel cap.
func FuzzReadPGM(f *testing.F) {
	f.Add(validPGM())
	f.Add([]byte("P5\n2 2\n255\nabcd"))
	f.Add([]byte("P5"))
	f.Add([]byte("P5\n# comment\n3 1\n255\nxyz"))
	f.Add([]byte("P5\n65535 65535\n255\n"))         // giant product, tiny body
	f.Add([]byte("P5\n99999999999999999 1\n255\n")) // digit-run overflow
	f.Add([]byte("P5\n-1 4\n255\n"))
	f.Add([]byte("P6\n2 2\n255\nabcdabcdabcd")) // wrong magic
	f.Add([]byte("P5\n2 2\n65535\nabcd"))       // unsupported maxval
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadPGM(bytes.NewReader(data))
		if err != nil {
			return
		}
		if m == nil {
			t.Fatal("nil Mat with nil error")
		}
		if m.Width <= 0 || m.Height <= 0 || m.Width*m.Height > maxPNMPixels {
			t.Fatalf("accepted unreasonable dimensions %dx%d", m.Width, m.Height)
		}
		if len(m.U8Pix) != m.Width*m.Height {
			t.Fatalf("pixel buffer %d for %dx%d", len(m.U8Pix), m.Width, m.Height)
		}
		// A decoded image must round-trip.
		var buf bytes.Buffer
		if err := WritePGM(&buf, m); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		m2, err := ReadPGM(&buf)
		if err != nil || !m.EqualTo(m2) {
			t.Fatalf("round-trip failed: %v", err)
		}
	})
}

// TestTryConstructors covers the error-returning constructors directly.
func TestTryConstructors(t *testing.T) {
	if _, err := TryNewMat(0, 5, U8); err == nil {
		t.Error("TryNewMat(0,5) should error")
	}
	if _, err := TryNewMat(5, -2, S16); err == nil {
		t.Error("TryNewMat(5,-2) should error")
	}
	if _, err := TryNewMat(4, 4, Type(99)); err == nil {
		t.Error("TryNewMat with unknown type should error")
	}
	m, err := TryNewMat(4, 3, F32)
	if err != nil || len(m.F32Pix) != 12 {
		t.Fatalf("TryNewMat(4,3,F32) = %v, %v", m, err)
	}
	if rgb := NewRGB(2, 2); len(rgb.Pix) != 12 {
		t.Fatalf("NewRGB(2,2) has %d bytes", len(rgb.Pix))
	}

	// The panicking wrappers must still panic for internal misuse.
	defer func() {
		if recover() == nil {
			t.Error("NewMat(0,0) should panic")
		}
	}()
	NewMat(0, 0, U8)
}
