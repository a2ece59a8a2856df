package cache

import (
	"testing"
	"testing/quick"
)

func small() Config { return Config{Name: "L1", SizeBytes: 1024, LineBytes: 64, Ways: 2} }

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, LineBytes: 64, Ways: 1},
		{SizeBytes: 1024, LineBytes: 0, Ways: 1},
		{SizeBytes: 1024, LineBytes: 64, Ways: 0},
		{SizeBytes: 1024, LineBytes: 48, Ways: 1},   // non power-of-two line
		{SizeBytes: 1000, LineBytes: 64, Ways: 1},   // size not multiple of line
		{SizeBytes: 1024, LineBytes: 64, Ways: 5},   // lines not divisible by ways
		{SizeBytes: 64 * 3, LineBytes: 64, Ways: 1}, // sets not power of two
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d should fail: %+v", i, c)
		}
	}
	if err := small().Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewHierarchy(); err == nil {
		t.Error("empty hierarchy should fail")
	}
	if _, err := NewHierarchy(small(), Config{Name: "L2", SizeBytes: 4096, LineBytes: 32, Ways: 4}); err == nil {
		t.Error("mixed line sizes should fail")
	}
	if _, err := NewHierarchy(Config{SizeBytes: 1000, LineBytes: 64, Ways: 1}); err == nil {
		t.Error("invalid level should fail")
	}
}

func TestColdMissThenHit(t *testing.T) {
	h, err := NewHierarchy(small())
	if err != nil {
		t.Fatal(err)
	}
	if d := h.Access(0, 4, false); d != 1 {
		t.Fatalf("cold access should go to memory, got level %d", d)
	}
	if d := h.Access(4, 4, false); d != 0 {
		t.Fatalf("same-line access should hit L1, got level %d", d)
	}
	if h.MemReads != 1 {
		t.Fatalf("mem reads: %d", h.MemReads)
	}
	l1 := h.levels[0]
	if l1.Hits != 1 || l1.Misses != 1 {
		t.Fatalf("hits/misses: %d/%d", l1.Hits, l1.Misses)
	}
}

func TestAccessSpanningLines(t *testing.T) {
	h, _ := NewHierarchy(small())
	// A 16-byte access at offset 56 spans two 64-byte lines.
	h.Access(56, 16, false)
	if h.MemReads != 2 {
		t.Fatalf("spanning access should fetch 2 lines, got %d", h.MemReads)
	}
	if h.Access(0, 0, false) != 0 { // size 0 clamps to 1, same line hits
		t.Fatal("zero-size access handling")
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 8 sets of 64B lines. Three lines mapping to the same set:
	// set index = lineAddr & 7, so addresses 0, 8*64, 16*64 share set 0.
	h, _ := NewHierarchy(small())
	a, b, c := uint64(0), uint64(8*64), uint64(16*64)
	h.Access(a, 1, false) // miss
	h.Access(b, 1, false) // miss
	h.Access(a, 1, false) // hit, a is MRU
	h.Access(c, 1, false) // miss, evicts b (LRU)
	if d := h.Access(a, 1, false); d != 0 {
		t.Error("a should still be resident")
	}
	if d := h.Access(b, 1, false); d != 1 {
		t.Error("b should have been evicted")
	}
}

func TestWritebackPropagation(t *testing.T) {
	h, _ := NewHierarchy(small())
	// Dirty a line, then evict it by filling its set.
	h.Access(0, 4, true)
	h.Access(8*64, 1, false)
	h.Access(16*64, 1, false) // evicts line 0 (dirty) -> memory writeback
	if h.MemWrites != 1 {
		t.Fatalf("writebacks: %d", h.MemWrites)
	}
	if h.DRAMBytes() != (h.MemReads+h.MemWrites)*64 {
		t.Fatal("DRAMBytes accounting")
	}
}

func TestTwoLevelHierarchy(t *testing.T) {
	l1 := Config{Name: "L1", SizeBytes: 512, LineBytes: 64, Ways: 1}
	l2 := Config{Name: "L2", SizeBytes: 4096, LineBytes: 64, Ways: 4}
	h, err := NewHierarchy(l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	// Touch 16 distinct lines: more than L1 (8 lines) but within L2 (64).
	for i := 0; i < 16; i++ {
		h.Access(uint64(i*64), 1, false)
	}
	if h.MemReads != 16 {
		t.Fatalf("compulsory misses: %d", h.MemReads)
	}
	// Second sweep: L1 capacity-misses but L2 hits; no new memory reads.
	for i := 0; i < 16; i++ {
		if d := h.Access(uint64(i*64), 1, false); d == 2 {
			t.Fatalf("line %d went to memory on re-walk", i)
		}
	}
	if h.MemReads != 16 {
		t.Fatalf("re-walk should not add memory reads: %d", h.MemReads)
	}
}

func TestStreamingTrafficMatchesFootprint(t *testing.T) {
	// Streaming a large buffer once: DRAM read bytes == footprint.
	h, _ := NewHierarchy(small())
	const n = 1 << 16
	for a := 0; a < n; a += 4 {
		h.Access(uint64(a), 4, false)
	}
	if got := h.MemReads * 64; got != n {
		t.Fatalf("streamed %d bytes, fetched %d", n, got)
	}
}

func TestReset(t *testing.T) {
	h, _ := NewHierarchy(small())
	h.Access(0, 4, true)
	h.Reset()
	if h.MemReads != 0 || h.MemWrites != 0 || h.levels[0].Hits != 0 || h.levels[0].Misses != 0 {
		t.Fatal("reset did not clear counters")
	}
	if d := h.Access(0, 4, false); d != 1 {
		t.Fatal("reset did not clear contents")
	}
	if h.LineBytes() != 64 {
		t.Fatal("line bytes")
	}
}

// Property: hits + misses == total line touches, and memory reads never
// exceed misses of the last level.
func TestQuickAccountingInvariants(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		h, _ := NewHierarchy(small(), Config{Name: "L2", SizeBytes: 8192, LineBytes: 64, Ways: 4})
		var touches uint64
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			h.Access(uint64(a), 1, w)
			touches++
		}
		l1 := h.levels[0]
		l2 := h.levels[1]
		if l1.Hits+l1.Misses < touches { // >= because writebacks touch L2 only
			return false
		}
		return h.MemReads <= l2.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: re-running any access trace after Reset gives identical
// counters (determinism).
func TestQuickDeterminism(t *testing.T) {
	f := func(addrs []uint16) bool {
		h, _ := NewHierarchy(small())
		run := func() (uint64, uint64) {
			for _, a := range addrs {
				h.Access(uint64(a), 2, a%3 == 0)
			}
			return h.MemReads, h.MemWrites
		}
		r1, w1 := run()
		h.Reset()
		r2, w2 := run()
		return r1 == r2 && w1 == w2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
