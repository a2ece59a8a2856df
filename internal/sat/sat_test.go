package sat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClampBounds(t *testing.T) {
	cases := []struct {
		name string
		got  int64
		want int64
	}{
		{"Int8 over", int64(Int8(200)), 127},
		{"Int8 under", int64(Int8(-200)), -128},
		{"Int8 in", int64(Int8(-5)), -5},
		{"Uint8 over", int64(Uint8(300)), 255},
		{"Uint8 under", int64(Uint8(-1)), 0},
		{"Uint8 in", int64(Uint8(42)), 42},
		{"Int16 over", int64(Int16(40000)), 32767},
		{"Int16 under", int64(Int16(-40000)), -32768},
		{"Uint16 over", int64(Uint16(70000)), 65535},
		{"Uint16 under", int64(Uint16(-3)), 0},
		{"Int32 over", int64(Int32(math.MaxInt32 + 1)), math.MaxInt32},
		{"Int32 under", int64(Int32(math.MinInt32 - 1)), math.MinInt32},
		{"Uint32 over", int64(Uint32(math.MaxUint32 + 1)), math.MaxUint32},
		{"Uint32 under", int64(Uint32(-9)), 0},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %d want %d", c.name, c.got, c.want)
		}
	}
}

func TestAddSaturates(t *testing.T) {
	if got := AddInt8(120, 120); got != 127 {
		t.Errorf("AddInt8: got %d", got)
	}
	if got := AddInt8(-120, -120); got != -128 {
		t.Errorf("AddInt8 neg: got %d", got)
	}
	if got := AddUint8(200, 100); got != 255 {
		t.Errorf("AddUint8: got %d", got)
	}
	if got := AddInt16(30000, 30000); got != 32767 {
		t.Errorf("AddInt16: got %d", got)
	}
	if got := AddUint16(60000, 60000); got != 65535 {
		t.Errorf("AddUint16: got %d", got)
	}
	if got := AddInt32(math.MaxInt32, 1); got != math.MaxInt32 {
		t.Errorf("AddInt32: got %d", got)
	}
	if got := AddInt64(math.MaxInt64, 1); got != math.MaxInt64 {
		t.Errorf("AddInt64: got %d", got)
	}
	if got := AddInt64(math.MinInt64, -1); got != math.MinInt64 {
		t.Errorf("AddInt64 neg: got %d", got)
	}
	if got := AddUint64(math.MaxUint64, 1); got != math.MaxUint64 {
		t.Errorf("AddUint64: got %d", got)
	}
}

func TestSubSaturates(t *testing.T) {
	if got := SubInt8(-120, 120); got != -128 {
		t.Errorf("SubInt8: got %d", got)
	}
	if got := SubUint8(10, 20); got != 0 {
		t.Errorf("SubUint8: got %d", got)
	}
	if got := SubInt16(-30000, 30000); got != -32768 {
		t.Errorf("SubInt16: got %d", got)
	}
	if got := SubUint16(1, 2); got != 0 {
		t.Errorf("SubUint16: got %d", got)
	}
	if got := SubInt32(math.MinInt32, 1); got != math.MinInt32 {
		t.Errorf("SubInt32: got %d", got)
	}
	if got := SubInt64(math.MinInt64, 1); got != math.MinInt64 {
		t.Errorf("SubInt64: got %d", got)
	}
	if got := SubInt64(math.MaxInt64, -1); got != math.MaxInt64 {
		t.Errorf("SubInt64 pos: got %d", got)
	}
	if got := SubUint64(0, 1); got != 0 {
		t.Errorf("SubUint64: got %d", got)
	}
}

func TestNarrowing(t *testing.T) {
	if got := NarrowInt32ToInt16(100000); got != 32767 {
		t.Errorf("NarrowInt32ToInt16 over: got %d", got)
	}
	if got := NarrowInt32ToInt16(-100000); got != -32768 {
		t.Errorf("NarrowInt32ToInt16 under: got %d", got)
	}
	if got := NarrowInt32ToInt16(1234); got != 1234 {
		t.Errorf("NarrowInt32ToInt16 in-range: got %d", got)
	}
	if got := NarrowInt16ToUint8(-1); got != 0 {
		t.Errorf("NarrowInt16ToUint8 neg: got %d", got)
	}
	if got := NarrowInt16ToUint8(300); got != 255 {
		t.Errorf("NarrowInt16ToUint8 over: got %d", got)
	}
	if got := NarrowUint16ToUint8(256); got != 255 {
		t.Errorf("NarrowUint16ToUint8: got %d", got)
	}
	if got := NarrowUint32ToUint16(1 << 20); got != 65535 {
		t.Errorf("NarrowUint32ToUint16: got %d", got)
	}
	if got := NarrowInt64ToInt32(1 << 40); got != math.MaxInt32 {
		t.Errorf("NarrowInt64ToInt32: got %d", got)
	}
}

func TestRounding(t *testing.T) {
	cases := []struct {
		v        float64
		away, ev int32
	}{
		{0.5, 1, 0},
		{1.5, 2, 2},
		{2.5, 3, 2},
		{-0.5, -1, 0},
		{-1.5, -2, -2},
		{-2.5, -3, -2},
		{3.2, 3, 3},
		{-3.7, -4, -4},
		{0, 0, 0},
	}
	for _, c := range cases {
		if got := RoundHalfAwayFromZero(c.v); got != c.away {
			t.Errorf("RoundHalfAwayFromZero(%v): got %d want %d", c.v, got, c.away)
		}
		if got := RoundHalfToEven(c.v); got != c.ev {
			t.Errorf("RoundHalfToEven(%v): got %d want %d", c.v, got, c.ev)
		}
	}
}

// roundAwayBranch is RoundHalfAwayFromZero as OpenCV spells it, branching
// on the sign.
func roundAwayBranch(v float64) int32 {
	if v >= 0 {
		return Float64ToInt32(v + 0.5)
	}
	return Float64ToInt32(v - 0.5)
}

// TestRoundHalfAwayFromZeroMatchesBranch holds the branch-free rounding to
// the branching form over signed zeros, ties, the largest float below a
// half, NaN, infinities, the int32 rails and seeded random values.
func TestRoundHalfAwayFromZeroMatchesBranch(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 0.5, -0.5, 1.5, -1.5, 2.5, -2.5,
		float64(float32(0.49999997)), -float64(float32(0.49999997)), math.Nextafter(0.5, 0), -math.Nextafter(0.5, 0),
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxInt32, math.MaxInt32 - 0.5, math.MaxInt32 + 0.5, math.MaxInt32 + 1,
		math.MinInt32, math.MinInt32 + 0.5, math.MinInt32 - 0.5, math.MinInt32 - 1}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		// Pixel-scale values with their ties, and float32-rounded ones as
		// the convert kernel feeds them.
		v := (rng.Float64() - 0.5) * 1024
		switch i % 3 {
		case 1:
			v = math.Round(v) + 0.5
		case 2:
			v = float64(float32(v))
		}
		vals = append(vals, v)
	}
	for _, v := range vals {
		if got, want := RoundHalfAwayFromZero(v), roundAwayBranch(v); got != want {
			t.Fatalf("RoundHalfAwayFromZero(%v) = %d, want %d", v, got, want)
		}
	}
}

func TestFloatConversionSaturation(t *testing.T) {
	if got := Float64ToInt32(1e12); got != math.MaxInt32 {
		t.Errorf("Float64ToInt32 over: got %d", got)
	}
	if got := Float64ToInt32(-1e12); got != math.MinInt32 {
		t.Errorf("Float64ToInt32 under: got %d", got)
	}
	if got := Float64ToInt32(math.NaN()); got != 0 {
		t.Errorf("Float64ToInt32 NaN: got %d", got)
	}
	if got := Float32ToInt32Truncate(2.9); got != 2 {
		t.Errorf("truncate positive: got %d", got)
	}
	if got := Float32ToInt32Truncate(-2.9); got != -2 {
		t.Errorf("truncate negative: got %d", got)
	}
	if got := Float32ToInt32Truncate(float32(math.Inf(1))); got != math.MaxInt32 {
		t.Errorf("truncate +inf: got %d", got)
	}
	if got := Float32ToInt32Truncate(float32(math.Inf(-1))); got != math.MinInt32 {
		t.Errorf("truncate -inf: got %d", got)
	}
	if got := Float32ToInt32Truncate(float32(math.NaN())); got != 0 {
		t.Errorf("truncate NaN: got %d", got)
	}
}

func TestNegAbsSaturate(t *testing.T) {
	if got := NegInt8(math.MinInt8); got != math.MaxInt8 {
		t.Errorf("NegInt8(min): got %d", got)
	}
	if got := AbsInt8(math.MinInt8); got != math.MaxInt8 {
		t.Errorf("AbsInt8(min): got %d", got)
	}
	if got := NegInt16(math.MinInt16); got != math.MaxInt16 {
		t.Errorf("NegInt16(min): got %d", got)
	}
	if got := AbsInt16(-7); got != 7 {
		t.Errorf("AbsInt16(-7): got %d", got)
	}
	if got := NegInt32(math.MinInt32); got != math.MaxInt32 {
		t.Errorf("NegInt32(min): got %d", got)
	}
	if got := AbsInt32(math.MinInt32); got != math.MaxInt32 {
		t.Errorf("AbsInt32(min): got %d", got)
	}
}

func TestShiftSaturate(t *testing.T) {
	if got := ShiftLeftInt16(1, 20); got != math.MaxInt16 {
		t.Errorf("ShiftLeftInt16 overflow: got %d", got)
	}
	if got := ShiftLeftInt16(-1, 20); got != math.MinInt16 {
		t.Errorf("ShiftLeftInt16 negative overflow: got %d", got)
	}
	if got := ShiftLeftInt16(3, 2); got != 12 {
		t.Errorf("ShiftLeftInt16 in-range: got %d", got)
	}
	if got := ShiftLeftInt16(0, 100); got != 0 {
		t.Errorf("ShiftLeftInt16 zero: got %d", got)
	}
	if got := ShiftLeftInt32(1, 40); got != math.MaxInt32 {
		t.Errorf("ShiftLeftInt32 overflow: got %d", got)
	}
	if got := ShiftLeftInt32(-2, 80); got != math.MinInt32 {
		t.Errorf("ShiftLeftInt32 big shift: got %d", got)
	}
}

// Property: saturating add is commutative, monotone in each argument, and
// agrees with wide arithmetic when the wide result is in range.
func TestQuickAddInt16Properties(t *testing.T) {
	comm := func(a, b int16) bool { return AddInt16(a, b) == AddInt16(b, a) }
	if err := quick.Check(comm, nil); err != nil {
		t.Error(err)
	}
	agree := func(a, b int16) bool {
		wide := int64(a) + int64(b)
		s := AddInt16(a, b)
		if wide >= math.MinInt16 && wide <= math.MaxInt16 {
			return int64(s) == wide
		}
		return int64(s) == math.MaxInt16 || int64(s) == math.MinInt16
	}
	if err := quick.Check(agree, nil); err != nil {
		t.Error(err)
	}
}

// Property: narrowing then widening is the identity for in-range values and
// clamps to the rails otherwise.
func TestQuickNarrowInt32ToInt16(t *testing.T) {
	f := func(v int32) bool {
		n := NarrowInt32ToInt16(v)
		if v >= math.MinInt16 && v <= math.MaxInt16 {
			return int32(n) == v
		}
		if v > math.MaxInt16 {
			return n == math.MaxInt16
		}
		return n == math.MinInt16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: saturating sub never wraps: sign of result is consistent with
// the wide-arithmetic result's clamped value.
func TestQuickSubUint8NeverWraps(t *testing.T) {
	f := func(a, b uint8) bool {
		s := SubUint8(a, b)
		if b > a {
			return s == 0
		}
		return s == a-b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the two rounding modes differ by at most 1 and only at exact
// .5 ties.
func TestQuickRoundingModesAgreeOffTies(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) || math.Abs(v) > 1e9 {
			return true
		}
		a := RoundHalfAwayFromZero(v)
		e := RoundHalfToEven(v)
		d := int64(a) - int64(e)
		if d < 0 {
			d = -d
		}
		if d > 1 {
			return false
		}
		if d == 1 {
			frac := math.Abs(v - math.Trunc(v))
			return frac == 0.5
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulDoubleInt16(t *testing.T) {
	if got := MulInt16(300, 300); got != math.MaxInt16 {
		t.Errorf("MulInt16 overflow: got %d", got)
	}
	if got := MulInt16(-300, 300); got != math.MinInt16 {
		t.Errorf("MulInt16 underflow: got %d", got)
	}
	if got := MulInt16(100, 100); got != 10000 {
		t.Errorf("MulInt16 in-range: got %d", got)
	}
	if got := DoubleInt16(20000); got != math.MaxInt16 {
		t.Errorf("DoubleInt16: got %d", got)
	}
	if got := DoubleInt16(-20000); got != math.MinInt16 {
		t.Errorf("DoubleInt16 neg: got %d", got)
	}
}
