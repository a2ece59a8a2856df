package integrity

import (
	"fmt"
	"math"

	"simdstudy/internal/image"
)

// This file is the plane-checksum half of the integrity layer: cheap
// per-plane block checksums. The pool scrubber stamps planes parked in the
// internal/par scratch pool and verifies them on reuse, localizing any
// corruption to a block of rows; the memo layer keys entries on a sum's
// Fold64 and verifies them on every hit; fault campaigns fold output sums
// into their result records.
//
// The hash is FNV-1a over each element's little-endian bytes: not
// cryptographic (the threat model is bit rot and wild writes, not an
// adversary), but any single flipped bit changes its block's sum, which is
// the property the fuzz target and the scrubber tests pin down.

const (
	fnvOffset uint32 = 2166136261
	fnvPrime  uint32 = 16777619
)

// PlaneSum is a block-checksummed fingerprint of one plane: Total elements
// hashed in blocks of Block elements (the final block may be short). A
// later Verify recomputes the sums and reports the first mismatching
// block, bounding corruption to Block elements instead of "somewhere in
// the plane".
type PlaneSum struct {
	Block int      // elements per block (> 0)
	Total int      // total elements summed
	Sums  []uint32 // one FNV-1a sum per block, ceil(Total/Block) entries
}

// ChecksumError reports a failed Verify.
type ChecksumError struct {
	// Block is the first mismatching block index, or -1 when the data's
	// length no longer matches the fingerprint (truncation or growth).
	Block int
	// Lo and Hi bound the corrupt region in elements ([Lo, Hi)); for a
	// length mismatch they hold the fingerprinted and actual lengths.
	Lo, Hi int
}

// Error renders the mismatch.
func (e *ChecksumError) Error() string {
	if e.Block < 0 {
		return fmt.Sprintf("integrity: plane length changed: summed %d elements, have %d", e.Lo, e.Hi)
	}
	return fmt.Sprintf("integrity: plane checksum mismatch in block %d (elements [%d,%d))", e.Block, e.Lo, e.Hi)
}

func hashU8(h uint32, v uint8) uint32 {
	return (h ^ uint32(v)) * fnvPrime
}

func hashU16(h uint32, v uint16) uint32 {
	h = (h ^ uint32(v&0xff)) * fnvPrime
	return (h ^ uint32(v>>8)) * fnvPrime
}

func hashU32(h uint32, v uint32) uint32 {
	h = (h ^ (v & 0xff)) * fnvPrime
	h = (h ^ (v >> 8 & 0xff)) * fnvPrime
	h = (h ^ (v >> 16 & 0xff)) * fnvPrime
	return (h ^ (v >> 24)) * fnvPrime
}

// matBlockSum hashes elements [lo, hi) of m's active plane.
func matBlockSum(m *image.Mat, lo, hi int) uint32 {
	h := fnvOffset
	switch m.Kind {
	case image.U8:
		for _, v := range m.U8Pix[lo:hi] {
			h = hashU8(h, v)
		}
	case image.S16:
		for _, v := range m.S16Pix[lo:hi] {
			h = hashU16(h, uint16(v))
		}
	case image.F32:
		for _, v := range m.F32Pix[lo:hi] {
			h = hashU32(h, math.Float32bits(v))
		}
	}
	return h
}

// matBlockSum4 hashes the four consecutive full blocks of block elements
// starting at lo. Each FNV-1a chain is one dependent multiply per byte, so
// hashing one block at a time leaves the multiplier idle between steps;
// four independent chains in one loop overlap. The sums equal four
// matBlockSum calls.
func matBlockSum4(m *image.Mat, lo, block int) (s [4]uint32) {
	h0, h1, h2, h3 := fnvOffset, fnvOffset, fnvOffset, fnvOffset
	switch m.Kind {
	case image.U8:
		p := m.U8Pix[lo : lo+4*block]
		a, b, c, d := p[:block], p[block:2*block], p[2*block:3*block], p[3*block:]
		b, c, d = b[:len(a)], c[:len(a)], d[:len(a)] // one bounds check, not three per element
		for i, v := range a {
			h0 = hashU8(h0, v)
			h1 = hashU8(h1, b[i])
			h2 = hashU8(h2, c[i])
			h3 = hashU8(h3, d[i])
		}
	case image.S16:
		p := m.S16Pix[lo : lo+4*block]
		a, b, c, d := p[:block], p[block:2*block], p[2*block:3*block], p[3*block:]
		b, c, d = b[:len(a)], c[:len(a)], d[:len(a)] // one bounds check, not three per element
		for i, v := range a {
			h0 = hashU16(h0, uint16(v))
			h1 = hashU16(h1, uint16(b[i]))
			h2 = hashU16(h2, uint16(c[i]))
			h3 = hashU16(h3, uint16(d[i]))
		}
	case image.F32:
		p := m.F32Pix[lo : lo+4*block]
		a, b, c, d := p[:block], p[block:2*block], p[2*block:3*block], p[3*block:]
		b, c, d = b[:len(a)], c[:len(a)], d[:len(a)] // one bounds check, not three per element
		for i, v := range a {
			h0 = hashU32(h0, math.Float32bits(v))
			h1 = hashU32(h1, math.Float32bits(b[i]))
			h2 = hashU32(h2, math.Float32bits(c[i]))
			h3 = hashU32(h3, math.Float32bits(d[i]))
		}
	}
	return [4]uint32{h0, h1, h2, h3}
}

// blockSums calls f, in block order until it returns false, with the
// index and sum of blocks 0..count-1 of m's active plane: block i covers
// elements [i*block, min((i+1)*block, n)). Runs of four full blocks hash
// together (matBlockSum4); the rest, a short final block included, hash
// one at a time.
func blockSums(m *image.Mat, block, n, count int, f func(i int, sum uint32) bool) {
	i := 0
	for ; block > 0 && i+4 <= count && (i+4)*block <= n; i += 4 {
		for k, sum := range matBlockSum4(m, i*block, block) {
			if !f(i+k, sum) {
				return
			}
		}
	}
	for ; i < count; i++ {
		lo := i * block
		if !f(i, matBlockSum(m, lo, min(lo+block, n))) {
			return
		}
	}
}

func matLen(m *image.Mat) int {
	switch m.Kind {
	case image.U8:
		return len(m.U8Pix)
	case image.S16:
		return len(m.S16Pix)
	case image.F32:
		return len(m.F32Pix)
	}
	return 0
}

// SumMat fingerprints m's active plane with blocks of blockRows rows
// (blockRows <= 0 selects 16), so a later VerifyMat mismatch names a row
// range. The plane length, not Width*Height, bounds the sum: pooled Mats
// are fingerprinted exactly as parked.
func SumMat(m *image.Mat, blockRows int) PlaneSum {
	if blockRows <= 0 {
		blockRows = 16
	}
	block := blockRows * m.Width
	if block <= 0 {
		block = 4096
	}
	n := matLen(m)
	ps := PlaneSum{Block: block, Total: n}
	blockSums(m, block, n, (n+block-1)/block, func(_ int, sum uint32) bool {
		ps.Sums = append(ps.Sums, sum)
		return true
	})
	return ps
}

// VerifyMat recomputes the fingerprint over m's active plane; nil means it
// matches, a *ChecksumError locates the first corrupt block.
func (p PlaneSum) VerifyMat(m *image.Mat) error {
	if matLen(m) != p.Total {
		return &ChecksumError{Block: -1, Lo: p.Total, Hi: matLen(m)}
	}
	bad := -1
	blockSums(m, p.Block, p.Total, len(p.Sums), func(i int, sum uint32) bool {
		if sum != p.Sums[i] {
			bad = i
			return false
		}
		return true
	})
	if bad < 0 {
		return nil
	}
	lo := bad * p.Block
	return &ChecksumError{Block: bad, Lo: lo, Hi: min(lo+p.Block, p.Total)}
}

// Fold64 collapses the fingerprint into a single 64-bit FNV-1a value
// covering the block geometry and every block sum. Two planes with equal
// Fold64 under the same blocking are byte-identical up to 32-bit-per-block
// collision odds — the content-address the memoization layer keys on,
// derived without a second pass over the plane.
func (p PlaneSum) Fold64() uint64 {
	const (
		offset uint64 = 14695981039346656037
		prime  uint64 = 1099511628211
	)
	fold := func(h, v uint64) uint64 {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * prime
			v >>= 8
		}
		return h
	}
	h := fold(fold(offset, uint64(p.Block)), uint64(p.Total))
	for _, s := range p.Sums {
		h = fold(h, uint64(s))
	}
	return h
}
