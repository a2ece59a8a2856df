package exec

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"simdstudy/internal/ir"
	"simdstudy/internal/kernels"
	"simdstudy/internal/vectorizer"
)

func minLoop() *ir.Loop {
	b := ir.NewBuilder("min10")
	v := b.Load(ir.U8, "src", 1, 0)
	c := b.ConstInt(ir.U8, 10)
	m := b.Bin(ir.OpMin, ir.U8, v, c)
	b.Store(ir.U8, "dst", 1, 0, m)
	return b.Done()
}

func TestRunSimpleLoop(t *testing.T) {
	env := NewEnv()
	env.U8["src"] = []uint8{1, 20, 5, 200, 10, 11}
	env.U8["dst"] = make([]uint8, 6)
	if err := Run(minLoop(), env, 6, RoundARM); err != nil {
		t.Fatal(err)
	}
	want := []uint8{1, 10, 5, 10, 10, 10}
	for i := range want {
		if env.U8["dst"][i] != want[i] {
			t.Errorf("pixel %d: got %d want %d", i, env.U8["dst"][i], want[i])
		}
	}
}

func TestArithmeticSemantics(t *testing.T) {
	b := ir.NewBuilder("arith")
	x := b.Load(ir.I16, "x", 1, 0)
	y := b.Load(ir.I16, "y", 1, 0)
	sum := b.Bin(ir.OpAdd, ir.I16, x, y)    // wraps
	sat := b.Bin(ir.OpAddSat, ir.I16, x, y) // saturates
	diff := b.Bin(ir.OpSub, ir.I16, x, y)   //
	prod := b.Bin(ir.OpMul, ir.I16, x, y)   //
	mn := b.Bin(ir.OpMin, ir.I16, x, y)     //
	mx := b.Bin(ir.OpMax, ir.I16, x, y)     //
	b.Store(ir.I16, "sum", 1, 0, sum)
	b.Store(ir.I16, "sat", 1, 0, sat)
	b.Store(ir.I16, "diff", 1, 0, diff)
	b.Store(ir.I16, "prod", 1, 0, prod)
	b.Store(ir.I16, "mn", 1, 0, mn)
	b.Store(ir.I16, "mx", 1, 0, mx)
	l := b.Done()

	env := NewEnv()
	env.S16["x"] = []int16{30000, -5, 100}
	env.S16["y"] = []int16{30000, 3, -7}
	for _, name := range []string{"sum", "sat", "diff", "prod", "mn", "mx"} {
		env.S16[name] = make([]int16, 3)
	}
	if err := Run(l, env, 3, RoundARM); err != nil {
		t.Fatal(err)
	}
	if env.S16["sum"][0] != -5536 { // 60000 wrapped
		t.Errorf("wrap add: %d", env.S16["sum"][0])
	}
	if env.S16["sat"][0] != 32767 {
		t.Errorf("sat add: %d", env.S16["sat"][0])
	}
	if env.S16["diff"][1] != -8 || env.S16["prod"][1] != -15 {
		t.Error("sub/mul")
	}
	if env.S16["mn"][2] != -7 || env.S16["mx"][2] != 100 {
		t.Error("min/max")
	}
}

func TestBitwiseAndShifts(t *testing.T) {
	b := ir.NewBuilder("bits")
	x := b.Load(ir.U16, "x", 1, 0)
	y := b.Load(ir.U16, "y", 1, 0)
	b.Store(ir.U16, "and", 1, 0, b.Bin(ir.OpAnd, ir.U16, x, y))
	b.Store(ir.U16, "or", 1, 0, b.Bin(ir.OpOr, ir.U16, x, y))
	b.Store(ir.U16, "xor", 1, 0, b.Bin(ir.OpXor, ir.U16, x, y))
	b.Store(ir.U16, "shl", 1, 0, b.Shift(ir.OpShl, ir.U16, x, 2))
	b.Store(ir.U16, "shr", 1, 0, b.Shift(ir.OpShr, ir.U16, x, 2))
	l := b.Done()
	env := NewEnv()
	env.U16["x"] = []uint16{0xF0F0}
	env.U16["y"] = []uint16{0x0FF0}
	for _, n := range []string{"and", "or", "xor", "shl", "shr"} {
		env.U16[n] = make([]uint16, 1)
	}
	if err := Run(l, env, 1, RoundARM); err != nil {
		t.Fatal(err)
	}
	if env.U16["and"][0] != 0x00F0 || env.U16["or"][0] != 0xFFF0 || env.U16["xor"][0] != 0xFF00 {
		t.Error("bitwise")
	}
	if env.U16["shl"][0] != 0xC3C0 || env.U16["shr"][0] != 0x3C3C {
		t.Errorf("shifts: %#x %#x", env.U16["shl"][0], env.U16["shr"][0])
	}

	// Arithmetic shift on signed type.
	b2 := ir.NewBuilder("sar")
	v := b2.Load(ir.I16, "v", 1, 0)
	b2.Store(ir.I16, "out", 1, 0, b2.Shift(ir.OpShr, ir.I16, v, 1))
	env2 := NewEnv()
	env2.S16["v"] = []int16{-5}
	env2.S16["out"] = make([]int16, 1)
	if err := Run(b2.Done(), env2, 1, RoundARM); err != nil {
		t.Fatal(err)
	}
	if env2.S16["out"][0] != -3 {
		t.Errorf("arithmetic shift: %d", env2.S16["out"][0])
	}
}

func TestCompareSelectAbs(t *testing.T) {
	b := ir.NewBuilder("sel")
	v := b.Load(ir.I16, "v", 1, 0)
	zero := b.ConstInt(ir.I16, 0)
	c := b.Bin(ir.OpCmpGT, ir.I16, v, zero)
	hi := b.ConstInt(ir.U8, 255)
	lo := b.ConstInt(ir.U8, 0)
	s := b.Select(ir.U8, c, hi, lo)
	b.Store(ir.U8, "mask", 1, 0, s)
	ab := b.Un(ir.OpAbs, ir.I16, v)
	b.Store(ir.I16, "abs", 1, 0, ab)
	qab := b.Un(ir.OpAbsSat, ir.I16, v)
	b.Store(ir.I16, "qabs", 1, 0, qab)
	l := b.Done()

	env := NewEnv()
	env.S16["v"] = []int16{-7, 7, 0, -32768}
	env.U8["mask"] = make([]uint8, 4)
	env.S16["abs"] = make([]int16, 4)
	env.S16["qabs"] = make([]int16, 4)
	if err := Run(l, env, 4, RoundARM); err != nil {
		t.Fatal(err)
	}
	if string(env.U8["mask"]) != string([]uint8{0, 255, 0, 0}) {
		t.Errorf("mask: %v", env.U8["mask"])
	}
	if env.S16["abs"][0] != 7 || env.S16["abs"][3] != -32768 {
		t.Errorf("wrapping abs: %v", env.S16["abs"])
	}
	if env.S16["qabs"][3] != 32767 {
		t.Errorf("saturating abs: %v", env.S16["qabs"])
	}
}

func TestConversionsAndRoundModes(t *testing.T) {
	b := ir.NewBuilder("cvt")
	v := b.Load(ir.F32, "src", 1, 0)
	r := b.Un(ir.OpCvtF2I, ir.I32, v)
	s := b.Un(ir.OpSatCast, ir.I16, r)
	b.Store(ir.I16, "dst", 1, 0, s)
	l := b.Done()

	src := []float32{0.5, 1.5, 2.5, -0.5, -2.5, 40000, -40000}
	runWith := func(mode RoundMode) []int16 {
		env := NewEnv()
		env.F32["src"] = src
		env.S16["dst"] = make([]int16, len(src))
		if err := Run(l, env, len(src), mode); err != nil {
			t.Fatal(err)
		}
		return env.S16["dst"]
	}
	arm := runWith(RoundARM)
	x86 := runWith(RoundX86)
	wantARM := []int16{1, 2, 3, -1, -3, 32767, -32768}
	wantX86 := []int16{0, 2, 2, 0, -2, 32767, -32768}
	for i := range src {
		if arm[i] != wantARM[i] {
			t.Errorf("ARM pixel %d: got %d want %d", i, arm[i], wantARM[i])
		}
		if x86[i] != wantX86[i] {
			t.Errorf("x86 pixel %d: got %d want %d", i, x86[i], wantX86[i])
		}
	}

	// Truncating convert and int-to-float.
	b2 := ir.NewBuilder("cvt2")
	v2 := b2.Load(ir.F32, "src", 1, 0)
	tr := b2.Un(ir.OpCvtF2IT, ir.I32, v2)
	f := b2.Un(ir.OpCvtI2F, ir.F32, tr)
	b2.Store(ir.F32, "dst", 1, 0, f)
	env := NewEnv()
	env.F32["src"] = []float32{2.9, -2.9}
	env.F32["dst"] = make([]float32, 2)
	if err := Run(b2.Done(), env, 2, RoundARM); err != nil {
		t.Fatal(err)
	}
	if env.F32["dst"][0] != 2 || env.F32["dst"][1] != -2 {
		t.Errorf("trunc+i2f: %v", env.F32["dst"])
	}
}

func TestWidenNarrow(t *testing.T) {
	b := ir.NewBuilder("wn")
	v := b.Load(ir.U8, "src", 1, 0)
	w := b.Un(ir.OpWiden, ir.U16, v)
	k := b.ConstInt(ir.U16, 300)
	s := b.Bin(ir.OpAdd, ir.U16, w, k)
	n := b.Un(ir.OpNarrow, ir.U8, s) // truncates mod 256
	b.Store(ir.U8, "dst", 1, 0, n)
	env := NewEnv()
	env.U8["src"] = []uint8{1}
	env.U8["dst"] = make([]uint8, 1)
	if err := Run(b.Done(), env, 1, RoundARM); err != nil {
		t.Fatal(err)
	}
	if env.U8["dst"][0] != uint8(301%256) {
		t.Errorf("narrow: %d", env.U8["dst"][0])
	}
}

func TestErrors(t *testing.T) {
	// Missing array.
	env := NewEnv()
	env.U8["src"] = []uint8{1}
	if err := Run(minLoop(), env, 1, RoundARM); err == nil {
		t.Error("missing dst should error")
	}
	// Invalid loop.
	bad := &ir.Loop{Name: "bad", Body: []ir.Instr{{Op: ir.OpAdd, Type: ir.I16, Args: []ir.Value{0, 1}}}}
	if err := Run(bad, NewEnv(), 1, RoundARM); err == nil {
		t.Error("invalid loop should error")
	}
	if err := RunBlocked(bad, NewEnv(), 1, 4, RoundARM); err == nil {
		t.Error("invalid loop should error in RunBlocked")
	}
	// Bad VF.
	if err := RunBlocked(minLoop(), env, 1, 0, RoundARM); err == nil {
		t.Error("VF 0 should error")
	}
	// Saturating ops on unsupported types.
	b := ir.NewBuilder("badsat")
	v := b.Load(ir.F32, "f", 1, 0)
	q := b.Un(ir.OpAbsSat, ir.F32, v)
	b.Store(ir.F32, "g", 1, 0, q)
	envF := NewEnv()
	envF.F32["f"] = []float32{1}
	envF.F32["g"] = make([]float32, 1)
	if err := Run(b.Done(), envF, 1, RoundARM); err == nil {
		t.Error("abssat on f32 should error")
	}
}

// Property: blocked (vector-order) execution is observationally identical
// to scalar execution for any VF — the core soundness property behind the
// vectorizer model.
func TestQuickBlockedEqualsScalar(t *testing.T) {
	b := ir.NewBuilder("mix")
	v := b.Load(ir.U8, "src", 1, 0)
	w := b.Un(ir.OpWiden, ir.U16, v)
	k := b.ConstInt(ir.U16, 7)
	m := b.Bin(ir.OpMul, ir.U16, w, k)
	h := b.Shift(ir.OpShr, ir.U16, m, 2)
	n := b.Un(ir.OpNarrow, ir.U8, h)
	b.Store(ir.U8, "dst", 1, 0, n)
	l := b.Done()

	f := func(pix []uint8, vfRaw uint8) bool {
		vf := int(vfRaw%15) + 1
		n := len(pix)
		e1 := NewEnv()
		e1.U8["src"] = append([]uint8(nil), pix...)
		e1.U8["dst"] = make([]uint8, n)
		e2 := NewEnv()
		e2.U8["src"] = append([]uint8(nil), pix...)
		e2.U8["dst"] = make([]uint8, n)
		if err := Run(l, e1, n, RoundARM); err != nil {
			return false
		}
		if err := RunBlocked(l, e2, n, vf, RoundARM); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if e1.U8["dst"][i] != e2.U8["dst"][i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBoundsChecking: loads and stores past the backing slice must return a
// typed BoundsError instead of an index-out-of-range panic.
func TestBoundsChecking(t *testing.T) {
	env := NewEnv()
	env.U8["src"] = []uint8{1, 2, 3}
	env.U8["dst"] = make([]uint8, 3)

	// Trip count exceeds the buffers: the 4th load must fail.
	err := Run(minLoop(), env, 4, RoundARM)
	if !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("want ErrOutOfBounds, got %v", err)
	}
	var be *BoundsError
	if !errors.As(err, &be) {
		t.Fatalf("want *BoundsError, got %T", err)
	}
	if be.Loop != "min10" || be.Array != "src" || be.Op != "load" || be.Index != 3 || be.Len != 3 {
		t.Errorf("wrong context: %+v", be)
	}

	// A store-side overflow: destination shorter than the source.
	env.U8["src"] = []uint8{1, 2, 3, 4}
	env.U8["dst"] = make([]uint8, 2)
	err = Run(minLoop(), env, 4, RoundARM)
	if !errors.As(err, &be) || be.Op != "store" || be.Array != "dst" {
		t.Fatalf("want store BoundsError, got %v", err)
	}

	// A negative offset underflows on the first iteration.
	b := ir.NewBuilder("neg")
	v := b.Load(ir.U8, "src", 1, -1)
	b.Store(ir.U8, "dst", 1, 0, v)
	env.U8["src"] = []uint8{1}
	env.U8["dst"] = make([]uint8, 1)
	err = Run(b.Done(), env, 1, RoundARM)
	if !errors.As(err, &be) || be.Index != -1 {
		t.Fatalf("want index -1 BoundsError, got %v", err)
	}

	// RunBlocked must bounds-check the lane-major path too.
	env.U8["src"] = []uint8{1, 2, 3}
	env.U8["dst"] = make([]uint8, 3)
	if err := RunBlocked(minLoop(), env, 8, 4, RoundARM); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("blocked: want ErrOutOfBounds, got %v", err)
	}
}

// loopEnv allocates every array l touches, sized for n iterations, and
// fills the ones it loads with seeded random elements.
func loopEnv(l *ir.Loop, n int, seed int64) *Env {
	size := map[string]int{}
	kind := map[string]ir.Type{}
	var names []string
	for _, ins := range l.Body {
		if ins.Op == ir.OpLoad || ins.Op == ir.OpStore {
			if _, ok := size[ins.Array]; !ok {
				names = append(names, ins.Array)
			}
			size[ins.Array] = max(size[ins.Array], (n-1)*ins.Stride+ins.Offset+1)
			kind[ins.Array] = ins.Type
		}
	}
	rng := rand.New(rand.NewSource(seed))
	env := NewEnv()
	for _, name := range names {
		sz := size[name]
		switch kind[name] {
		case ir.U8:
			a := make([]uint8, sz)
			for i := range a {
				a[i] = uint8(rng.Intn(256))
			}
			env.U8[name] = a
		case ir.I16:
			a := make([]int16, sz)
			for i := range a {
				a[i] = int16(rng.Intn(1 << 16))
			}
			env.S16[name] = a
		case ir.U16:
			a := make([]uint16, sz)
			for i := range a {
				a[i] = uint16(rng.Intn(1 << 16))
			}
			env.U16[name] = a
		case ir.I32:
			a := make([]int32, sz)
			for i := range a {
				a[i] = int32(rng.Uint32())
			}
			env.S32[name] = a
		case ir.F32:
			a := make([]float32, sz)
			for i := range a {
				a[i] = float32(rng.NormFloat64() * 40000) // spans the s16 saturation edges
			}
			env.F32[name] = a
		}
	}
	return env
}

// TestRunDecisionMatchesScalar executes every benchmark loop the way the
// AUTO build would under its vectorizer decision — lane-blocked at the
// decision's vector factor when vectorized, plain scalar otherwise — and
// checks the environment ends byte-equal to scalar execution: the
// end-to-end soundness check of the compiler model.
func TestRunDecisionMatchesScalar(t *testing.T) {
	const n = 100
	targets := []struct {
		target vectorizer.Target
		mode   RoundMode
	}{{vectorizer.TargetNEON, RoundARM}, {vectorizer.TargetSSE2, RoundX86}}
	var vectorized, scalar int
	for _, b := range kernels.Benchmarks() {
		for _, p := range b.Passes {
			for _, tg := range targets {
				l := p.Loop
				d := vectorizer.Analyze(l, tg.target)
				got, want := loopEnv(l, n, 1), loopEnv(l, n, 1)
				var err error
				if d.Vectorized {
					vectorized++
					err = RunBlocked(l, got, n, d.VF, tg.mode)
				} else {
					scalar++
					err = Run(l, got, n, tg.mode)
				}
				if err != nil {
					t.Fatalf("%s/%s on %v: %v", b.Name, l.Name, tg.target, err)
				}
				if err := Run(l, want, n, tg.mode); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s on %v (vectorized=%v, VF %d): result differs from scalar",
						b.Name, l.Name, tg.target, d.Vectorized, d.VF)
				}
			}
		}
	}
	if vectorized == 0 || scalar == 0 {
		t.Fatalf("want both branches exercised: %d vectorized, %d scalar decisions", vectorized, scalar)
	}
}
