package image

import (
	"bufio"
	"fmt"
	"io"
)

// WritePGM encodes a U8 Mat as a binary PGM (P5) image, the uncompressed
// format our tooling uses in place of the paper's bitmaps.
func WritePGM(w io.Writer, m *Mat) error {
	if m.Kind != U8 {
		return fmt.Errorf("image: WritePGM requires U8, got %v", m.Kind)
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n255\n", m.Width, m.Height); err != nil {
		return err
	}
	if _, err := bw.Write(m.U8Pix); err != nil {
		return err
	}
	return bw.Flush()
}

// maxPNMPixels caps the allocation a decoded header can demand. 1<<26
// pixels (64 Mpx) is 8x the paper's largest resolution; a 65535x65535
// header would otherwise commit 4 GiB before a single pixel byte is read.
const maxPNMPixels = 1 << 26

// readPGMHeader parses "P5 <width> <height> <maxval>" with bounded reads:
// the magic is exactly two bytes (never an unbounded token), header
// integers are value-capped, and the width*height product is checked
// against maxPNMPixels before any allocation.
func readPGMHeader(br *bufio.Reader) (width, height int, err error) {
	var magic [2]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return 0, 0, fmt.Errorf("image: bad PGM header: %w", err)
	}
	if string(magic[:]) != "P5" {
		return 0, 0, fmt.Errorf("image: not a binary PGM (magic %q)", magic[:])
	}
	width, err = readPNMInt(br)
	if err != nil {
		return 0, 0, err
	}
	height, err = readPNMInt(br)
	if err != nil {
		return 0, 0, err
	}
	maxval, err := readPNMInt(br)
	if err != nil {
		return 0, 0, err
	}
	if maxval != 255 {
		return 0, 0, fmt.Errorf("image: unsupported PGM maxval %d", maxval)
	}
	if width <= 0 || height <= 0 || width > 1<<16 || height > 1<<16 {
		return 0, 0, fmt.Errorf("image: unreasonable PGM dimensions %dx%d", width, height)
	}
	if width*height > maxPNMPixels {
		return 0, 0, fmt.Errorf("image: PGM dimensions %dx%d exceed the %d-pixel limit",
			width, height, maxPNMPixels)
	}
	return width, height, nil
}

// ReadPGM decodes a binary PGM (P5) image into a U8 Mat. Truncated or
// hostile headers return errors; allocation is bounded by maxPNMPixels.
func ReadPGM(r io.Reader) (*Mat, error) {
	br := bufio.NewReader(r)
	width, height, err := readPGMHeader(br)
	if err != nil {
		return nil, err
	}
	m, err := TryNewMat(width, height, U8)
	if err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(br, m.U8Pix); err != nil {
		return nil, fmt.Errorf("image: short PGM pixel data: %w", err)
	}
	return m, nil
}

// readPNMInt reads the next whitespace-delimited integer, skipping
// '#'-comments, and consumes the single whitespace byte that terminates the
// header per the PNM specification.
func readPNMInt(br *bufio.Reader) (int, error) {
	// Skip whitespace and comments.
	for {
		b, err := br.ReadByte()
		if err != nil {
			return 0, err
		}
		if b == '#' {
			if _, err := br.ReadString('\n'); err != nil {
				return 0, err
			}
			continue
		}
		if b == ' ' || b == '\t' || b == '\n' || b == '\r' {
			continue
		}
		if err := br.UnreadByte(); err != nil {
			return 0, err
		}
		break
	}
	n := 0
	seen := false
	for {
		b, err := br.ReadByte()
		if err == io.EOF && seen {
			return n, nil
		}
		if err != nil {
			return 0, err
		}
		if b >= '0' && b <= '9' {
			n = n*10 + int(b-'0')
			seen = true
			// No PNM header field is this large; bail before a long digit
			// run overflows int.
			if n > 1<<30 {
				return 0, fmt.Errorf("image: PNM header value too large")
			}
			continue
		}
		if !seen {
			return 0, fmt.Errorf("image: expected integer, got %q", b)
		}
		// The terminating whitespace byte is consumed, as the spec requires.
		return n, nil
	}
}
