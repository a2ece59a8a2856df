package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestRecordAndCount(t *testing.T) {
	var c Counter
	c.Record(Op{Name: "vadd.i16", Class: SIMDALU})
	c.Record(Op{Name: "vadd.i16", Class: SIMDALU})
	c.Record(Op{Name: "vld1.32", Class: SIMDLoad, Bytes: 16})
	c.Record(Op{Name: "vst1.16", Class: SIMDStore, Bytes: 16})
	c.Record(Op{Name: "ldr", Class: ScalarLoad, Bytes: 4})
	if c.Count(SIMDALU) != 2 {
		t.Errorf("SIMDALU: %d", c.Count(SIMDALU))
	}
	if c.Opcode("vadd.i16") != 2 {
		t.Errorf("opcode count: %d", c.Opcode("vadd.i16"))
	}
	if c.Total() != 5 {
		t.Errorf("total: %d", c.Total())
	}
	if c.SIMDTotal() != 4 {
		t.Errorf("simd total: %d", c.SIMDTotal())
	}
	if c.BytesLoaded() != 20 {
		t.Errorf("bytes loaded: %d", c.BytesLoaded())
	}
	if c.BytesStored() != 16 {
		t.Errorf("bytes stored: %d", c.BytesStored())
	}
}

func TestRecordN(t *testing.T) {
	var c Counter
	c.RecordN("add", ScalarALU, 100, 0)
	c.RecordN("ldrh", ScalarLoad, 50, 2)
	if c.Count(ScalarALU) != 100 || c.Count(ScalarLoad) != 50 {
		t.Fatalf("counts: %d %d", c.Count(ScalarALU), c.Count(ScalarLoad))
	}
	if c.BytesLoaded() != 100 {
		t.Fatalf("bytes: %d", c.BytesLoaded())
	}
	c.RecordN("nop", Move, 0, 0)
	if c.Opcode("nop") != 0 {
		t.Fatal("zero RecordN should not create opcode entry")
	}
}

func TestNilCounterSafe(t *testing.T) {
	var c *Counter
	c.Record(Op{Name: "x", Class: SIMDALU}) // must not panic
	c.RecordN("y", Branch, 3, 0)
	c.Add(nil)
	c.Reset()
	if c.Total() != 0 || c.Count(Branch) != 0 || c.Opcode("y") != 0 {
		t.Fatal("nil counter should read as zero")
	}
	if c.SIMDTotal() != 0 || c.BytesLoaded() != 0 || c.BytesStored() != 0 {
		t.Fatal("nil counter aggregate reads")
	}
	if got := c.Summary(); got != "(nil trace)" {
		t.Fatalf("nil summary: %q", got)
	}
	if c.PerPixel(10) != [NumClasses]float64{} {
		t.Fatal("nil PerPixel")
	}
}

func TestAdd(t *testing.T) {
	var a, b Counter
	a.Record(Op{Name: "vmul", Class: SIMDMul})
	b.Record(Op{Name: "vmul", Class: SIMDMul})
	b.Record(Op{Name: "b.ne", Class: Branch})
	b.RecordN("vld1", SIMDLoad, 2, 16)
	a.Add(&b)
	if a.Count(SIMDMul) != 2 || a.Count(Branch) != 1 || a.Count(SIMDLoad) != 2 {
		t.Fatalf("after add: %v", a.Classes())
	}
	if a.Opcode("vmul") != 2 {
		t.Fatalf("opcode merge: %d", a.Opcode("vmul"))
	}
	if a.BytesLoaded() != 32 {
		t.Fatalf("bytes merge: %d", a.BytesLoaded())
	}
}

func TestSequenceCapture(t *testing.T) {
	c := Counter{SeqCap: 3}
	for i := 0; i < 10; i++ {
		c.Record(Op{Name: "vadd", Class: SIMDALU})
	}
	if len(c.Sequence()) != 3 {
		t.Fatalf("sequence len: %d", len(c.Sequence()))
	}
	if c.Total() != 10 {
		t.Fatalf("total unaffected by cap: %d", c.Total())
	}
}

func TestReset(t *testing.T) {
	c := Counter{SeqCap: 5}
	c.Record(Op{Name: "x", Class: SIMDALU, Bytes: 0})
	c.Record(Op{Name: "ld", Class: ScalarLoad, Bytes: 8})
	c.Reset()
	if c.Total() != 0 || c.BytesLoaded() != 0 || len(c.Sequence()) != 0 {
		t.Fatal("reset did not clear")
	}
	if c.SeqCap != 5 {
		t.Fatal("reset should retain SeqCap")
	}
}

func TestPerPixel(t *testing.T) {
	var c Counter
	c.RecordN("vadd", SIMDALU, 14, 0)
	m := c.PerPixel(8)
	if m[SIMDALU] != 1.75 {
		t.Fatalf("per pixel: %v", m[SIMDALU])
	}
	if c.PerPixel(0) != [NumClasses]float64{} {
		t.Fatal("PerPixel(0) should be empty")
	}
}

func TestClassPredicatesAndNames(t *testing.T) {
	simd := []Class{SIMDLoad, SIMDStore, SIMDALU, SIMDMul, SIMDCvt, SIMDShuffle}
	for _, c := range simd {
		if !c.IsSIMD() {
			t.Errorf("%v should be SIMD", c)
		}
	}
	scalar := []Class{ScalarLoad, ScalarStore, ScalarALU, ScalarFP, ScalarCvt, Branch, Call, AddrCalc, Move}
	for _, c := range scalar {
		if c.IsSIMD() {
			t.Errorf("%v should not be SIMD", c)
		}
	}
	for c := Class(0); c < Class(NumClasses); c++ {
		if strings.Contains(c.String(), "class(") {
			t.Errorf("class %d missing name", int(c))
		}
	}
	if Class(99).String() != "class(99)" {
		t.Error("out of range class name")
	}
}

func TestSummary(t *testing.T) {
	var c Counter
	c.Record(Op{Name: "vcvt.s32.f32", Class: SIMDCvt})
	c.Record(Op{Name: "vqmovn.s32", Class: SIMDCvt})
	s := c.Summary()
	if !strings.Contains(s, "vcvt.s32.f32") || !strings.Contains(s, "simd.cvt") {
		t.Fatalf("summary missing entries: %s", s)
	}
}

// TestCounterConcurrent exercises the concurrent-use guarantee: multiple
// goroutines record into one shared Counter while others merge private
// counters in and read snapshots. Run with -race this is the regression
// test for the harness's per-cell fan-in.
func TestCounterConcurrent(t *testing.T) {
	var shared Counter
	const workers = 8
	const iters = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local Counter
			for i := 0; i < iters; i++ {
				shared.Record(Op{Name: "vadd.i16", Class: SIMDALU})
				shared.RecordN("vld1.8", SIMDLoad, 1, 16)
				shared.Event("fault.detected")
				local.Record(Op{Name: "vmul.i16", Class: SIMDMul})
			}
			shared.Merge(&local)
		}()
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = shared.Snapshot().Total()
				_ = shared.Summary()
			}
		}
	}()
	wg.Wait()
	close(done)
	const n = workers * iters
	if got := shared.Count(SIMDALU); got != n {
		t.Fatalf("SIMDALU = %d, want %d", got, n)
	}
	if got := shared.Count(SIMDMul); got != n {
		t.Fatalf("merged SIMDMul = %d, want %d", got, n)
	}
	if got := shared.Events()["fault.detected"]; got != n {
		t.Fatalf("events = %d, want %d", got, n)
	}
	if got := shared.BytesLoaded(); got != n*16 {
		t.Fatalf("bytesLoaded = %d, want %d", got, n*16)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	var c Counter
	c.Record(Op{Name: "vadd.i16", Class: SIMDALU})
	snap := c.Snapshot()
	c.Record(Op{Name: "vadd.i16", Class: SIMDALU})
	if snap.Total() != 1 || c.Total() != 2 {
		t.Fatalf("snapshot not isolated: snap=%d live=%d", snap.Total(), c.Total())
	}
}

func TestInternSameTripleSameID(t *testing.T) {
	a := Intern("vtest.intern", SIMDLoad, 16)
	if b := Intern("vtest.intern", SIMDLoad, 16); b != a {
		t.Fatalf("same triple interned twice: %d then %d", a, b)
	}
	if b := Intern("vtest.intern", SIMDLoad, 8); b == a {
		t.Fatal("different width must intern separately")
	}
	if b := Intern("vtest.intern", SIMDStore, 16); b == a {
		t.Fatal("different class must intern separately")
	}
	if op := a.Op(); op != (Op{Name: "vtest.intern", Class: SIMDLoad, Bytes: 16}) {
		t.Fatalf("ID resolves to %+v", op)
	}
	if NumOps() <= int(a) {
		t.Fatalf("NumOps %d does not cover ID %d", NumOps(), a)
	}
}

// TestSummaryAggregatesByName: one mnemonic recorded under two classes (the
// NEON vorr both moves and ORs) prints one line with the summed count.
func TestSummaryAggregatesByName(t *testing.T) {
	var c Counter
	c.RecordN("vorr", Move, 3, 0)
	c.RecordN("vorr", SIMDALU, 2, 0)
	if got := c.Opcode("vorr"); got != 5 {
		t.Fatalf("Opcode(vorr) = %d, want 5", got)
	}
	if s := c.Summary(); !strings.Contains(s, "    vorr             5\n") || strings.Count(s, "vorr") != 1 {
		t.Fatalf("summary does not aggregate by name:\n%s", s)
	}
}

func TestTallyFlush(t *testing.T) {
	ld := Intern("vld1.32", SIMDLoad, 16)
	add := Intern("vadd.i16", SIMDALU, 0)
	var c, want Counter
	var l Tally
	for i := 0; i < 10; i++ {
		l.Inc(&c, ld)
		want.RecordID(ld)
	}
	l.Add(&c, add, 7)
	want.RecordIDN(add, 7)
	l.Add(&c, add, 0)
	if c.Total() != 0 {
		t.Fatal("tally must not reach the counter before Flush")
	}
	l.Flush()
	l.Flush()
	if got, w := c.Summary(), want.Summary(); got != w {
		t.Fatalf("flushed tally differs from direct records:\n%s\nwant:\n%s", got, w)
	}
	if c.BytesLoaded() != 160 {
		t.Fatalf("bytes loaded = %d, want 160", c.BytesLoaded())
	}

	// Rebinding to another counter flushes what was tallied for the first.
	var d Counter
	l.Inc(&c, add)
	l.Inc(&d, add)
	if c.Opcode("vadd.i16") != 8 {
		t.Fatalf("rebind lost the old counter's pending count: %d", c.Opcode("vadd.i16"))
	}
	l.Flush()
	if d.Opcode("vadd.i16") != 1 {
		t.Fatalf("new counter = %d, want 1", d.Opcode("vadd.i16"))
	}
}

// TestTallySequenceCapture: while the counter captures a sequence, a
// tally records straight into it, in program order.
func TestTallySequenceCapture(t *testing.T) {
	ld := Intern("vld1.32", SIMDLoad, 16)
	cvt := Intern("vcvt.s32.f32", SIMDCvt, 0)
	c := Counter{SeqCap: 3}
	var l Tally
	l.Inc(&c, ld)
	l.Add(&c, cvt, 5) // bulk accounting: counted, not captured
	l.Inc(&c, cvt)
	l.Inc(&c, ld)
	l.Inc(&c, ld)
	seq := c.Sequence()
	if len(seq) != 3 || seq[0].Name != "vld1.32" || seq[1].Name != "vcvt.s32.f32" || seq[2].Name != "vld1.32" {
		t.Fatalf("sequence = %+v", seq)
	}
	if c.Total() != 9 {
		t.Fatalf("total = %d, want 9 without a Flush", c.Total())
	}
}

// TestTallyBind: Bind hands out the array records would land in without
// recording anything, and refuses where records bypass the array.
func TestTallyBind(t *testing.T) {
	add := Intern("vadd.i16", SIMDALU, 0)
	var c Counter
	var l Tally
	n := l.Bind(&c)
	if n == nil || l.Counts(&c) != n || l.Bind(&c) != n {
		t.Fatal("Bind must bind once and return the bound array")
	}
	n[add] += 3
	l.Inc(&c, add)
	l.Flush()
	if c.Opcode("vadd.i16") != 4 || c.Total() != 4 {
		t.Fatalf("bound array records = %d, want 4", c.Opcode("vadd.i16"))
	}
	// Binding with nothing recorded adds no entry.
	var empty Counter
	l.Bind(&empty)
	l.Flush()
	if empty.Total() != 0 || empty.Summary() != (&Counter{}).Summary() {
		t.Fatalf("empty bind changed the counter:\n%s", empty.Summary())
	}
	if n := l.Bind(&Counter{SeqCap: 1}); n != nil {
		t.Fatal("Bind must refuse a sequence-capturing counter")
	}
	l.Share()
	if n := l.Bind(&c); n != nil {
		t.Fatal("Bind must refuse a shared tally")
	}
}

// TestAddAllocFree: merging a band's counts for opcodes the destination
// already holds — the steady state of every banded kernel — allocates
// nothing.
func TestAddAllocFree(t *testing.T) {
	var dst, band Counter
	band.Record(Op{Name: "vld1.8", Class: SIMDLoad, Bytes: 16})
	band.Record(Op{Name: "vmin.u8", Class: SIMDALU})
	band.RecordN("cmp+b", Branch, 4, 0)
	dst.Add(&band)
	if n := testing.AllocsPerRun(100, func() { dst.Add(&band) }); n != 0 {
		t.Fatalf("Add of already-seen opcodes allocates %v per merge", n)
	}
	// One merge above, then AllocsPerRun's warm-up call and its 100 runs.
	if got := dst.Opcode("cmp+b"); got != 4*102 {
		t.Fatalf("cmp+b = %d, want %d", got, 4*102)
	}
}
