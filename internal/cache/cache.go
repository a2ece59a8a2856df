// Package cache implements a set-associative, multi-level, write-back
// write-allocate cache hierarchy simulator with LRU replacement.
//
// The timing model replays each benchmark pass's memory access streams
// through a hierarchy configured from Table I's cache columns to estimate
// DRAM traffic per pixel — which is what separates compute-bound from
// bandwidth-bound kernels and underlies the paper's observation that the
// same NEON code speeds up very differently across SoCs (ODROID-X vs
// Tegra 3).
package cache

import "fmt"

// Config describes one cache level.
type Config struct {
	Name      string
	SizeBytes int
	LineBytes int
	Ways      int
}

// Validate checks geometric consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("cache: size %d not a multiple of line %d", c.SizeBytes, c.LineBytes)
	}
	if lines%c.Ways != 0 {
		return fmt.Errorf("cache: %d lines not divisible by %d ways", lines, c.Ways)
	}
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

// Level is one cache level.
type Level struct {
	cfg     Config
	sets    [][]line
	setMask uint64
	shift   uint
	tick    uint64

	Hits   uint64
	Misses uint64
}

func newLevel(cfg Config) (*Level, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	l := &Level{cfg: cfg, setMask: uint64(nsets - 1)}
	for s := 1; s < cfg.LineBytes; s <<= 1 {
		l.shift++
	}
	l.sets = make([][]line, nsets)
	for i := range l.sets {
		l.sets[i] = make([]line, cfg.Ways)
	}
	return l, nil
}

// access looks up a line address; on miss it allocates with LRU eviction
// and reports whether a dirty victim was written back.
func (l *Level) access(lineAddr uint64, write bool) (hit, writeback bool, victim uint64) {
	l.tick++
	set := l.sets[lineAddr&l.setMask]
	tag := lineAddr >> 0 // full line address as tag; set index implicit
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = l.tick
			if write {
				set[i].dirty = true
			}
			l.Hits++
			return true, false, 0
		}
	}
	l.Misses++
	// Choose victim: invalid first, else least recently used.
	vi := 0
	for i := range set {
		if !set[i].valid {
			vi = i
			break
		}
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	wb := set[vi].valid && set[vi].dirty
	victimAddr := set[vi].tag
	set[vi] = line{tag: tag, valid: true, dirty: write, lru: l.tick}
	return false, wb, victimAddr
}

// Hierarchy is an ordered list of levels backed by memory.
type Hierarchy struct {
	levels []*Level

	// DRAM traffic in lines.
	MemReads  uint64 // lines fetched from memory
	MemWrites uint64 // dirty lines written back to memory
}

// NewHierarchy builds a hierarchy, L1 first.
func NewHierarchy(cfgs ...Config) (*Hierarchy, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("cache: empty hierarchy")
	}
	h := &Hierarchy{}
	lineBytes := cfgs[0].LineBytes
	for _, c := range cfgs {
		if c.LineBytes != lineBytes {
			return nil, fmt.Errorf("cache: mixed line sizes unsupported (%d vs %d)", c.LineBytes, lineBytes)
		}
		l, err := newLevel(c)
		if err != nil {
			return nil, err
		}
		h.levels = append(h.levels, l)
	}
	return h, nil
}

// LineBytes returns the hierarchy's line size.
func (h *Hierarchy) LineBytes() int { return h.levels[0].cfg.LineBytes }

// Access performs a byte-granular access of the given size, touching every
// line it spans. It returns the deepest level index that had to be
// consulted (0 for an L1 hit, len(levels) for memory).
func (h *Hierarchy) Access(addr uint64, size int, write bool) int {
	if size <= 0 {
		size = 1
	}
	lb := uint64(h.LineBytes())
	first := addr / lb
	last := (addr + uint64(size) - 1) / lb
	deepest := 0
	for la := first; la <= last; la++ {
		d := h.accessLine(la, write)
		if d > deepest {
			deepest = d
		}
	}
	return deepest
}

func (h *Hierarchy) accessLine(lineAddr uint64, write bool) int {
	for i, l := range h.levels {
		hit, wb, victim := l.access(lineAddr, write && i == 0)
		if wb {
			// Dirty victim propagates to the next level down (or memory).
			h.writebackFrom(i+1, victim)
		}
		if hit {
			return i
		}
	}
	h.MemReads++
	return len(h.levels)
}

func (h *Hierarchy) writebackFrom(level int, lineAddr uint64) {
	if level >= len(h.levels) {
		h.MemWrites++
		return
	}
	l := h.levels[level]
	_, wb, victim := l.access(lineAddr, true)
	if wb {
		h.writebackFrom(level+1, victim)
	}
}

// DRAMBytes returns total bytes exchanged with memory.
func (h *Hierarchy) DRAMBytes() uint64 {
	return (h.MemReads + h.MemWrites) * uint64(h.LineBytes())
}

// Reset clears all state and counters.
func (h *Hierarchy) Reset() {
	for _, l := range h.levels {
		for i := range l.sets {
			for j := range l.sets[i] {
				l.sets[i][j] = line{}
			}
		}
		l.Hits, l.Misses, l.tick = 0, 0, 0
	}
	h.MemReads, h.MemWrites = 0, 0
}
