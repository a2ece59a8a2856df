// Package trace records dynamic instruction streams emitted by the NEON and
// SSE2 emulation layers and by the IR executor.
//
// The paper's central quantity is instructions retired per output pixel:
// its Section V shows the hand-written NEON loop retiring 14 instructions
// per 8 pixels while the auto-vectorized build needs many more because gcc
// fails to block the loop. Every emulated intrinsic call and every IR
// interpreter step reports into a Counter so those counts are measured, not
// assumed.
//
// Every distinct (mnemonic, class, bytes) triple is interned once as an
// OpID, at package init for the emulation layers. Recording is then an
// index, not a string hash: a recording goroutine bumps a private,
// unsynchronized Tally and folds it into the shared, mutex-guarded Counter
// under one lock when its pass completes or at an explicit Flush.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Class buckets instructions by the execution resource they occupy. The
// timing model prices each class per microarchitecture.
type Class int

// Instruction classes. SIMD classes occupy the vector pipe(s); scalar
// classes occupy the integer or scalar-FP pipes. Branch, Call and AddrCalc
// model loop and call overhead, which the paper's assembly analysis shows
// dominating the auto-vectorized builds.
const (
	SIMDLoad Class = iota
	SIMDStore
	SIMDALU     // vector integer add/sub/logic/compare/min/max
	SIMDMul     // vector multiplies and multiply-accumulate
	SIMDCvt     // vector conversions and saturating narrows/packs
	SIMDShuffle // shuffles, unpacks, combines, lane moves
	ScalarLoad
	ScalarStore
	ScalarALU // scalar integer ops, address arithmetic folded separately
	ScalarFP  // scalar floating point (VFP on ARM, x87/SSE-scalar on Intel)
	ScalarCvt // scalar int<->float conversion
	Branch
	Call // function call + return pair (e.g. the lrint fallback)
	AddrCalc
	Move // register-to-register moves
	numClasses
)

// NumClasses is the number of distinct instruction classes.
const NumClasses = int(numClasses)

var classNames = [...]string{
	"simd.load", "simd.store", "simd.alu", "simd.mul", "simd.cvt",
	"simd.shuffle", "scalar.load", "scalar.store", "scalar.alu",
	"scalar.fp", "scalar.cvt", "branch", "call", "addr", "move",
}

// String returns the class mnemonic.
func (c Class) String() string {
	if c < 0 || int(c) >= NumClasses {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return classNames[c]
}

// IsSIMD reports whether the class executes on the vector pipeline.
func (c Class) IsSIMD() bool {
	switch c {
	case SIMDLoad, SIMDStore, SIMDALU, SIMDMul, SIMDCvt, SIMDShuffle:
		return true
	}
	return false
}

// Op is a single recorded instruction occurrence.
type Op struct {
	Name  string // mnemonic, e.g. "vld1.32" or "cvtps2dq"
	Class Class
	Bytes int // memory bytes moved, zero for non-memory ops
}

// OpID identifies one interned Op: its (Name, Class, Bytes) triple.
type OpID uint32

// MaxOps bounds the IDs a Tally counts densely. Every emulation-layer
// mnemonic is interned at package init, far below it; an ID interned past
// it (an ad-hoc Record of a new name) goes straight to its Counter.
const MaxOps = 512

// interned is the process-wide intern table. tab is append-only and
// published by atomic pointer, so readers index it without a lock; ids and
// the appends are guarded by mu.
var interned struct {
	mu  sync.Mutex
	ids map[Op]OpID
	tab atomic.Pointer[[]Op]
}

// Intern returns the ID of the (name, class, bytes) triple, registering it
// on first use. The same triple always yields the same ID.
func Intern(name string, class Class, bytes int) OpID {
	op := Op{Name: name, Class: class, Bytes: bytes}
	interned.mu.Lock()
	defer interned.mu.Unlock()
	if id, ok := interned.ids[op]; ok {
		return id
	}
	if interned.ids == nil {
		interned.ids = make(map[Op]OpID)
	}
	tab := append(opTable(), op)
	id := OpID(len(tab) - 1)
	interned.ids[op] = id
	interned.tab.Store(&tab)
	return id
}

func opTable() []Op {
	if p := interned.tab.Load(); p != nil {
		return *p
	}
	return nil
}

// NumOps returns how many distinct ops have been interned so far.
func NumOps() int { return len(opTable()) }

// Op returns the triple id was interned for.
func (id OpID) Op() Op { return opTable()[id] }

// opCount is one op's count in a Counter.
type opCount struct {
	n  uint64
	id OpID
}

// Counter accumulates a dynamic instruction trace. The zero value is ready
// to use. All methods are safe for concurrent use: the harness's per-cell
// goroutines may record into a shared Counter directly, though the cheaper
// fan-in pattern is one private Counter per goroutine folded into a shared
// one with Merge (with Snapshot to publish a consistent copy), or one Tally
// per goroutine flushed into the shared Counter. SeqCap must be set before
// the first Record.
type Counter struct {
	mu sync.Mutex
	// ops holds the per-op counts sorted by id. Class counts and byte
	// traffic derive from it, so a retained Counter is little more than
	// one 16-byte entry per distinct op.
	ops []opCount

	// seq captures the first SeqCap recorded ops for listing generation
	// (Section V style analysis). Disabled unless SeqCap > 0.
	SeqCap int
	seq    []Op

	// events counts named out-of-band occurrences that are not
	// instructions — fault detections, scalar fallbacks, kill-switch
	// trips — so robustness telemetry rides the same Counter plumbing
	// (Add/Reset/Summary) as the instruction stream.
	events map[string]uint64
}

// Record notes one occurrence of op.
func (t *Counter) Record(op Op) {
	if t == nil {
		return
	}
	t.RecordID(Intern(op.Name, op.Class, op.Bytes))
}

// RecordN notes n occurrences of an op with no sequence capture. It is the
// bulk form used for ad-hoc accounting; hot paths intern once and use
// RecordIDN or a Tally.
func (t *Counter) RecordN(name string, class Class, n uint64, bytesEach int) {
	if t == nil || n == 0 {
		return
	}
	t.RecordIDN(Intern(name, class, bytesEach), n)
}

// RecordID notes one occurrence of the interned op id, capturing it in the
// sequence when SeqCap allows.
func (t *Counter) RecordID(id OpID) {
	if t == nil {
		return
	}
	op := id.Op()
	one := [1]opCount{{n: 1, id: id}}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mergeLocked(one[:])
	if t.SeqCap > 0 && len(t.seq) < t.SeqCap {
		t.seq = append(t.seq, op)
	}
}

// RecordIDN notes n occurrences of the interned op id with no sequence
// capture.
func (t *Counter) RecordIDN(id OpID, n uint64) {
	if t == nil || n == 0 {
		return
	}
	one := [1]opCount{{n: n, id: id}}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mergeLocked(one[:])
}

// mergeLocked adds the id-sorted counts in add to t's per-op list. Adding
// to ops t already holds allocates nothing; new ops cost one exact-size
// reallocation of the list.
func (t *Counter) mergeLocked(add []opCount) {
	missing := 0
	j := 0
	for _, a := range add {
		for j < len(t.ops) && t.ops[j].id < a.id {
			j++
		}
		if j < len(t.ops) && t.ops[j].id == a.id {
			t.ops[j].n += a.n
		} else {
			missing++
		}
	}
	if missing == 0 {
		return
	}
	merged := make([]opCount, 0, len(t.ops)+missing)
	i := 0
	for _, a := range add {
		for i < len(t.ops) && t.ops[i].id < a.id {
			merged = append(merged, t.ops[i])
			i++
		}
		if i < len(t.ops) && t.ops[i].id == a.id {
			continue // counted in place above
		}
		merged = append(merged, a)
	}
	t.ops = append(merged, t.ops[i:]...)
}

// mergeBuf sizes the stack buffers that carry counts between two locks.
const mergeBuf = 64

// fold moves a Tally's dense counts into t and zeroes them. The array is
// scanned outside t's lock; only the merge holds it.
func (t *Counter) fold(n *[MaxOps]uint64) {
	var buf [mergeBuf]opCount
	add := buf[:0]
	for id, k := range n[:min(NumOps(), MaxOps)] {
		if k != 0 {
			add = append(add, opCount{n: k, id: OpID(id)})
			n[id] = 0
		}
	}
	if len(add) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mergeLocked(add)
}

// Event notes one occurrence of a named non-instruction event.
func (t *Counter) Event(name string) {
	t.EventN(name, 1)
}

// EventN notes n occurrences of a named non-instruction event.
func (t *Counter) EventN(name string, n uint64) {
	if t == nil || n == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.events == nil {
		t.events = make(map[string]uint64)
	}
	t.events[name] += n
}

// Events returns a copy of the event counters.
func (t *Counter) Events() map[string]uint64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return copyEvents(t.events)
}

func copyEvents(ev map[string]uint64) map[string]uint64 {
	if len(ev) == 0 {
		return nil
	}
	m := make(map[string]uint64, len(ev))
	for k, v := range ev {
		m[k] = v
	}
	return m
}

// totals are a Counter's per-class counts and byte traffic.
type totals struct {
	classes        [numClasses]uint64
	loaded, stored uint64
}

// totalsLocked derives t's totals from its per-op counts.
func (t *Counter) totalsLocked() (s totals) {
	tab := opTable()
	for _, oc := range t.ops {
		op := tab[oc.id]
		s.classes[op.Class] += oc.n
		switch op.Class {
		case SIMDLoad, ScalarLoad:
			s.loaded += oc.n * uint64(op.Bytes)
		case SIMDStore, ScalarStore:
			s.stored += oc.n * uint64(op.Bytes)
		}
	}
	return s
}

func (s totals) total() uint64 {
	var n uint64
	for _, c := range s.classes {
		n += c
	}
	return n
}

func (s totals) simd() uint64 {
	var n uint64
	for c := Class(0); c < numClasses; c++ {
		if c.IsSIMD() {
			n += s.classes[c]
		}
	}
	return n
}

// totals returns t's totals under its lock.
func (t *Counter) totals() totals {
	if t == nil {
		return totals{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totalsLocked()
}

// Count returns the number of instructions recorded in class c.
func (t *Counter) Count(c Class) uint64 { return t.totals().classes[c] }

// Opcode returns the dynamic count for a specific mnemonic, summed over
// every class and width it was recorded with.
func (t *Counter) Opcode(name string) uint64 {
	if t == nil {
		return 0
	}
	tab := opTable()
	t.mu.Lock()
	defer t.mu.Unlock()
	var s uint64
	for _, oc := range t.ops {
		if tab[oc.id].Name == name {
			s += oc.n
		}
	}
	return s
}

// Total returns the total dynamic instruction count.
func (t *Counter) Total() uint64 { return t.totals().total() }

// SIMDTotal returns the count of vector-pipe instructions.
func (t *Counter) SIMDTotal() uint64 { return t.totals().simd() }

// BytesLoaded returns total bytes read from memory.
func (t *Counter) BytesLoaded() uint64 { return t.totals().loaded }

// BytesStored returns total bytes written to memory.
func (t *Counter) BytesStored() uint64 { return t.totals().stored }

// Sequence returns the captured instruction prefix (up to SeqCap ops).
func (t *Counter) Sequence() []Op {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Op, len(t.seq))
	copy(out, t.seq)
	return out
}

// Reset zeroes the counter, retaining SeqCap.
func (t *Counter) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops = nil
	t.seq = nil
	t.events = nil
}

// Add accumulates other into t. It copies other's counts under other's
// lock, releases it, then folds them in under t's lock — never both at
// once, so concurrent cross-merges cannot deadlock. Merging ops t already
// holds allocates nothing.
func (t *Counter) Add(other *Counter) {
	if t == nil || other == nil || t == other {
		return
	}
	var buf [mergeBuf]opCount
	other.mu.Lock()
	add := append(buf[:0], other.ops...)
	events := copyEvents(other.events)
	other.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mergeLocked(add)
	if events != nil {
		if t.events == nil {
			t.events = make(map[string]uint64, len(events))
		}
		for k, v := range events {
			t.events[k] += v
		}
	}
}

// Merge is Add under the name the fan-in pattern reads naturally as: each
// harness grid-cell goroutine records into its own Counter and merges it
// into the shared one when the cell completes.
func (t *Counter) Merge(other *Counter) { t.Add(other) }

// Snapshot returns a consistent copy of the counter, safe to read without
// synchronization while the original keeps recording.
func (t *Counter) Snapshot() *Counter {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := &Counter{
		SeqCap: t.SeqCap,
		events: copyEvents(t.events),
	}
	if t.ops != nil {
		n.ops = append([]opCount(nil), t.ops...)
	}
	if t.seq != nil {
		n.seq = make([]Op, len(t.seq))
		copy(n.seq, t.seq)
	}
	return n
}

// Tally is the unsynchronized front end one recording goroutine keeps
// before a Counter: a dense per-OpID count array, so recording an
// instruction is one increment with no lock and no hashing. Counts reach
// the Counter only at Flush, under one lock. The zero value is ready. The
// array is borrowed from a process-wide pool on the first record after a
// Flush and returned, zeroed, by the Flush, so a Tally holds one only
// while it has counts pending and short-lived recorders share a few.
//
// Records bypass the array and go straight to the Counter, under its lock
// and in program order, while the Counter captures a sequence (SeqCap > 0)
// — so listings are unchanged — and once the Tally is shared (Share).
type Tally struct {
	c      *Counter
	n      *[MaxOps]uint64
	shared bool
}

// tallyArrays recycles the count arrays of flushed Tallies; every array in
// it is all zeros.
var tallyArrays = sync.Pool{New: func() any { return new([MaxOps]uint64) }}

// Share makes the tally safe to record into from several goroutines at
// once: from then on every record goes straight to the Counter under its
// lock. It flushes what the array held and must not race with records.
func (l *Tally) Share() {
	l.Flush()
	l.shared = true
}

// Inc notes one occurrence of id for c, which must be non-nil.
func (l *Tally) Inc(c *Counter, id OpID) {
	if l.c == c && id < MaxOps {
		l.n[id]++
		return
	}
	l.slow(c, id, 1, true)
}

// Add notes n occurrences of id for c, which must be non-nil, with no
// sequence capture.
func (l *Tally) Add(c *Counter, id OpID, n uint64) {
	if l.c == c && id < MaxOps {
		l.n[id] += n
		return
	}
	l.slow(c, id, n, false)
}

// Counts returns the count array the tally is bound to for c, or nil when
// records for c do not land in one (unbound, bound to another counter,
// shared or capturing a sequence). Until the next Flush or Share, adding
// to entry id of it is Inc(c, id) for any id below MaxOps, so a recorder
// may cache it and increment inline.
func (l *Tally) Counts(c *Counter) *[MaxOps]uint64 {
	if l.c != c {
		return nil
	}
	return l.n
}

// Bind binds the tally to c, which must be non-nil, without recording, and
// returns the count array it is bound to, as Counts would after a record.
// It refuses, returning nil, where a record would bypass the array: once
// the tally is shared, or while c captures a sequence (SeqCap > 0).
func (l *Tally) Bind(c *Counter) *[MaxOps]uint64 {
	if l.c == c {
		return l.n
	}
	if l.shared || c.SeqCap > 0 {
		return nil
	}
	l.Flush()
	l.c, l.n = c, tallyArrays.Get().(*[MaxOps]uint64)
	return l.n
}

// slow records past the array (shared tally, sequence capture, IDs beyond
// MaxOps) or binds the tally to c, flushing what it held for another
// counter.
func (l *Tally) slow(c *Counter, id OpID, n uint64, one bool) {
	if id < MaxOps {
		if a := l.Bind(c); a != nil {
			a[id] += n
			return
		}
	}
	if one {
		c.RecordID(id)
	} else {
		c.RecordIDN(id, n)
	}
}

// Flush folds the tallied counts into their Counter and returns the array
// to the pool. Flushing a Tally with nothing pending is a no-op, so Flush
// is idempotent.
func (l *Tally) Flush() {
	if l.c == nil {
		return
	}
	l.c.fold(l.n)
	tallyArrays.Put(l.n)
	l.c, l.n = nil, nil
}

// Classes returns a snapshot of per-class counts indexed by Class.
func (t *Counter) Classes() [NumClasses]uint64 { return t.totals().classes }

// PerPixel divides every class count by pixels, returning instructions per
// output element indexed by Class — the unit used throughout the paper's
// Section V discussion. It is all zeros for pixels <= 0.
func (t *Counter) PerPixel(pixels int) (p [NumClasses]float64) {
	if pixels <= 0 {
		return p
	}
	for c, n := range t.Classes() {
		p[c] = float64(n) / float64(pixels)
	}
	return p
}

// Summary renders a sorted per-opcode and per-class report.
func (t *Counter) Summary() string {
	if t == nil {
		return "(nil trace)"
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sb strings.Builder
	s := t.totalsLocked()
	fmt.Fprintf(&sb, "total=%d simd=%d loadB=%d storeB=%d\n", s.total(), s.simd(), s.loaded, s.stored)
	for c, n := range s.classes {
		if n > 0 {
			fmt.Fprintf(&sb, "  %-12s %d\n", Class(c), n)
		}
	}
	tab := opTable()
	type nameCount struct {
		name string
		n    uint64
	}
	byName := make([]nameCount, 0, len(t.ops))
	for _, oc := range t.ops {
		byName = append(byName, nameCount{tab[oc.id].Name, oc.n})
	}
	sort.SliceStable(byName, func(i, j int) bool { return byName[i].name < byName[j].name })
	for i := 0; i < len(byName); {
		nc := byName[i]
		for i++; i < len(byName) && byName[i].name == nc.name; i++ {
			nc.n += byName[i].n
		}
		fmt.Fprintf(&sb, "    %-16s %d\n", nc.name, nc.n)
	}
	if len(t.events) > 0 {
		evs := make([]string, 0, len(t.events))
		for k := range t.events {
			evs = append(evs, k)
		}
		sort.Strings(evs)
		for _, k := range evs {
			fmt.Fprintf(&sb, "  event %-12s %d\n", k, t.events[k])
		}
	}
	return sb.String()
}
