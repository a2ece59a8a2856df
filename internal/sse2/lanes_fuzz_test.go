package sse2

import (
	"math"
	"reflect"
	"testing"

	"simdstudy/internal/trace"
	"simdstudy/internal/vec"
)

// laneSliceLen is the length of every slice operand: more than the widest
// load or store touches (an unaligned 128-bit load reads 16 bytes).
const laneSliceLen = 64

// laneOperands draws intrinsic operands from fuzz input, cycling through it.
type laneOperands struct {
	data []byte
	i    int
}

func (r *laneOperands) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[r.i%len(r.data)]
	r.i++
	return b
}

func (r *laneOperands) bits(n int) uint64 {
	var w uint64
	for k := 0; k < n; k++ {
		w |= uint64(r.byte()) << (8 * k)
	}
	return w
}

// arg returns an operand of type t: registers and slices from the input's
// bits, shift counts in 0..16, bookkeeping counts in 0..7.
func (r *laneOperands) arg(t reflect.Type) reflect.Value {
	switch t {
	case reflect.TypeOf(vec.V128{}):
		return reflect.ValueOf(vec.V128{Lo: r.bits(8), Hi: r.bits(8)})
	case reflect.TypeOf(vec.V64{}):
		return reflect.ValueOf(vec.V64{W: r.bits(8)})
	}
	switch t.Kind() {
	case reflect.Slice:
		s := reflect.MakeSlice(t, laneSliceLen, laneSliceLen)
		for i := 0; i < laneSliceLen; i++ {
			e := s.Index(i)
			switch e.Kind() {
			case reflect.Uint8, reflect.Uint16, reflect.Uint32:
				e.SetUint(r.bits(int(e.Type().Size())))
			case reflect.Int8, reflect.Int16, reflect.Int32:
				n := uint(e.Type().Size()) * 8
				e.SetInt(int64(r.bits(int(n/8))<<(64-n)) >> (64 - n))
			case reflect.Float32:
				e.SetFloat(float64(math.Float32frombits(uint32(r.bits(4)))))
			default:
				panic("lane fuzz: no operand for " + t.String())
			}
		}
		return s
	case reflect.Uint:
		return reflect.ValueOf(uint(r.byte() % 17)).Convert(t)
	case reflect.Int:
		return reflect.ValueOf(int(r.byte() % 8)).Convert(t)
	}
	panic("lane fuzz: no operand for " + t.String())
}

// cloneArgs copies args so each call gets its own slices to store into.
func cloneArgs(args []reflect.Value) []reflect.Value {
	out := make([]reflect.Value, len(args))
	for i, a := range args {
		out[i] = a
		if a.Kind() == reflect.Slice {
			out[i] = reflect.MakeSlice(a.Type(), a.Len(), a.Len())
			reflect.Copy(out[i], a)
		}
	}
	return out
}

// laneCall is one intrinsic call: what it returned, what it left in its
// slice operands, and the panic it raised, if any.
type laneCall struct {
	out, args []reflect.Value
	panicked  any
}

func callLane(fn reflect.Value, args []reflect.Value) (c laneCall) {
	c.args = cloneArgs(args)
	defer func() { c.panicked = recover() }()
	c.out = fn.Call(c.args)
	return c
}

func sameCall(a, b laneCall) bool {
	if (a.panicked == nil) != (b.panicked == nil) || len(a.out) != len(b.out) {
		return false
	}
	for i := range a.out {
		if !sameBits(a.out[i], b.out[i]) {
			return false
		}
	}
	for i := range a.args {
		if !sameBits(a.args[i], b.args[i]) {
			return false
		}
	}
	return true
}

// sameBits compares values bit for bit, so a NaN lane equals itself.
func sameBits(a, b reflect.Value) bool {
	if a.Kind() == reflect.Slice {
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	}
	if a.Kind() == reflect.Float32 {
		return math.Float32bits(float32(a.Float())) == math.Float32bits(float32(b.Float()))
	}
	return reflect.DeepEqual(a.Interface(), b.Interface())
}

// values renders call values for a failure message.
func values(vs []reflect.Value) []any {
	out := make([]any, len(vs))
	for i, v := range vs {
		out[i] = v.Interface()
	}
	return out
}

// checkLaneMethods drives every Lanes method against its *Unit method on
// operands drawn from data: the lanes must match a traced unit bit for bit,
// in what they return and what they store. What a call counts is the
// skeletons' part (TestLaneTwinsMatchInstrumented in internal/cv).
func checkLaneMethods(t *testing.T, data []byte) {
	lt, ut := reflect.TypeOf(Lanes{}), reflect.TypeOf(&Unit{})
	for i := 0; i < lt.NumMethod(); i++ {
		m := lt.Method(i)
		um, ok := ut.MethodByName(m.Name)
		if !ok {
			t.Fatalf("Lanes.%s has no (*Unit).%s", m.Name, m.Name)
		}
		ops := laneOperands{data: data}
		args := make([]reflect.Value, m.Type.NumIn()-1)
		for k := range args {
			args[k] = ops.arg(m.Type.In(k + 1))
		}
		u := &Unit{T: &trace.Counter{}}
		want := callLane(reflect.ValueOf(u).Method(um.Index), args)
		got := callLane(reflect.ValueOf(Lanes{}).Method(m.Index), args)
		if !sameCall(want, got) {
			t.Fatalf("%s%v: unit %v %v / panic %v, lanes %v %v / panic %v",
				m.Name, values(args), values(want.out), values(want.args), want.panicked,
				values(got.out), values(got.args), got.panicked)
		}
		u.Flush()
	}
}

// FuzzSSE2Lanes is the differential check on the generated lane methods:
// each must be its *Unit method with the hooks stripped. The seeds sit on
// the rounding and saturation edges (0x7FFF, 0x8000, 0xFF, float32 NaN
// and 32768) and on the shift counts 0, 15 and 16.
func FuzzSSE2Lanes(f *testing.F) {
	for _, seed := range [][]byte{
		{0x00}, {0x0F}, {0x10}, {0xFF}, {0x80}, {0x7F},
		{0xFF, 0x7F}, {0x00, 0x80}, {0xFF, 0x7F, 0x00, 0x80},
		{0x01, 0xFF, 0x10, 0x0F, 0x00, 0x80, 0xFF, 0x7F},
		{0x00, 0x00, 0xC0, 0x7F}, {0x00, 0x00, 0x00, 0x47}, {0x00, 0xFF, 0xFF, 0x46},
	} {
		f.Add(seed)
	}
	f.Fuzz(checkLaneMethods)
}
