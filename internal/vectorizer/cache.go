package vectorizer

import (
	"hash/fnv"
	"math"
	"sync"

	"simdstudy/internal/ir"
)

// Analyze is a pure function of the loop's content and the target, but the
// loop values it sees are not stable: kernels.Benchmarks() rebuilds every
// ir.Loop on each call, so report tools that sweep the kernel library
// (timing.AutoProfile, timing.Decisions, cmd/simdreport) re-run the full
// analysis for structurally identical loops over and over. AnalyzeCached
// memoizes Decision values behind a content fingerprint — never a pointer —
// so equal loops hit the cache regardless of which Benchmarks() call built
// them.

// fingerprint hashes everything Analyze can observe about a loop plus the
// target: the name, the tap metadata, and each instruction's full field set
// (opcode, result type, operands, memory operands, constant payloads, shift
// amounts). Two loops with equal fingerprints are analyzed identically.
func fingerprint(l *ir.Loop, target Target) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	h.Write([]byte(l.Name))
	put(uint64(target))
	put(uint64(l.RuntimeKernelTaps))
	put(uint64(len(l.Body)))
	for _, ins := range l.Body {
		put(uint64(ins.Op))
		put(uint64(ins.Type))
		put(uint64(len(ins.Args)))
		for _, a := range ins.Args {
			put(uint64(a))
		}
		h.Write([]byte(ins.Array))
		put(uint64(int64(ins.Stride)))
		put(uint64(int64(ins.Offset)))
		put(uint64(ins.IntVal))
		put(math.Float64bits(ins.FloatVal))
		put(uint64(ins.ShiftAmount))
	}
	return h.Sum64()
}

var analyzeMemo sync.Map // fingerprint (uint64) -> Decision

// AnalyzeCached returns Analyze(l, target), memoized on the loop's content
// fingerprint. Decisions are plain values (no pointers, no slices), so the
// cached copy is immutable and safe to hand out concurrently.
func AnalyzeCached(l *ir.Loop, target Target) Decision {
	key := fingerprint(l, target)
	if d, ok := analyzeMemo.Load(key); ok {
		return d.(Decision)
	}
	d := Analyze(l, target)
	analyzeMemo.Store(key, d)
	return d
}

// ResetCache drops all memoized decisions (tests only).
func ResetCache() {
	analyzeMemo.Range(func(k, _ any) bool { analyzeMemo.Delete(k); return true })
}
