package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLaneGenCurrent fails when a checked-in lanes_gen.go differs from what
// lanegen emits for the hand-written bodies now.
func TestLaneGenCurrent(t *testing.T) {
	out, err := Generate(moduleDirs(filepath.Join("..", "..")))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("generated %d files, want 3", len(out))
	}
	for _, path := range sortedKeys(out) {
		have, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(have, out[path]) {
			t.Errorf("%s is stale: run go generate ./internal/cv", path)
		}
	}
}

// writePkg writes one source file per entry into a fresh directory.
func writePkg(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLaneGenRefusesUntwinnable: a body binding a unit that cannot be
// twinned, or is handed on without its twin, fails the generator with the
// body's name, and nothing is generated.
func TestLaneGenRefusesUntwinnable(t *testing.T) {
	real := moduleDirs(filepath.Join("..", ".."))
	const ops = "package cv\n\ntype Ops struct{ n, s any }\n"
	cases := []struct {
		name, src, neon, want string
	}{
		{name: "unit passed on", want: "row has no lane twin: it uses u other than to call an intrinsic",
			src: "func row(b *Ops) { u := b.n; keep(u) }"},
		{name: "unit field read", want: "row has no lane twin: it uses u.T other than as an intrinsic call",
			src: "func row(b *Ops) { u := b.s; _ = u.T }"},
		{name: "unit reached directly", want: "row has no lane twin: it reaches the unit n directly",
			src: "func row(b *Ops, x int) { u := b.n; u.VaddqS16(x, x); b.n.VaddqS16(x, x) }"},
		{name: "bound below the top level", want: "row binds a unit below its top level",
			src: "func row(b *Ops, x int) { if x > 0 { u := b.n; u.VaddqS16(x, x) } }"},
		{name: "no such intrinsic", want: "no (*Unit).NoSuchOp",
			src: "func row(b *Ops) { u := b.n; u.NoSuchOp() }"},
		{name: "intrinsic with no lane form", want: "(*Unit).Bad has no lane form",
			src:  "func row(b *Ops) { u := b.n; u.Bad() }",
			neon: "package neon\n\ntype Unit struct{ T any }\n\nfunc (u *Unit) Bad() any { return u.T }\n"},
		{name: "passed without its twin", want: "pass passes row without its lane twin rowLanes",
			src: "func row(b *Ops, a int, y int) { u := b.n; u.VaddqS16(a, a) }\n\n" +
				"func pass(o *Ops) { parRows(o, 1, 0, row, nil) }"},
		{name: "exit with no flush", want: "row has no lane twin: it panics, an exit its skeleton cannot flush on",
			src: "func row(b *Ops, x int) { u := b.n; u.VaddqS16(x, x); if x > 0 { panic(x) } }"},
		{name: "count after the flush", want: "row has no lane twin: its skeleton cannot count the call of VaddqS16 there",
			src: "func row(b *Ops, x int) { u := b.n; defer func() { u.VaddqS16(x, x) }() }"},
		{name: "call in a loop condition", want: "row has no lane twin: a loop bound, condition or switch tag reads the result of VaddqS16",
			src: "func row(b *Ops, x int) { u := b.n; for u.VaddqS16(x, x) != x {} }"},
		{name: "if condition reads a lane", want: "row has no lane twin: a loop bound, condition or switch tag reads the result of VaddqS16",
			src: "func row(b *Ops, x int) { u := b.n; if u.VaddqS16(x, x) > 0 { u.VaddqS16(x, x) } }"},
		{name: "loop bound reads a lane", want: "row has no lane twin: a loop bound, condition or switch tag reads the result of VaddqS16",
			src: "func row(b *Ops, x int) { u := b.n; for i := 0; i < u.VaddqS16(x, x); i++ { u.VaddqS16(i, i) } }"},
		{name: "switch tag reads a lane", want: "row has no lane twin: a loop bound, condition or switch tag reads the result of VaddqS16",
			src: "func row(b *Ops, x int) { u := b.n; switch u.VaddqS16(x, x) { case 0: u.VaddqS16(x, x) } }"},
		{name: "lane read through a local", want: "row has no lane twin: a loop bound, condition or switch tag reads the result of VaddqS16",
			src: "func row(b *Ops, x int) { u := b.n; v := u.VaddqS16(x, x); n := v + 1; for i := 0; i < n; i++ { u.VaddqS16(i, i) } }"},
		{name: "bound read from a store", want: "row has no lane twin: its skeleton would keep a store or closure its control reads",
			src: "func row(b *Ops, x int) { u := b.n; var n [1]int; n[0] = x; for i := 0; i < n[0]; i++ { u.VaddqS16(i, i) } }"},
		{name: "closure counting under control", want: "row has no lane twin: its skeleton cannot count a call of op: it counts under control",
			src: "func row(b *Ops, x int) { u := b.n; op := func() { if x > 0 { u.VaddqS16(x, x) } }; op() }"},
		{name: "count not a constant", want: "row has no lane twin: it passes Overhead a count that is not an integer constant",
			src: "func row(b *Ops, x int) { u := b.n; u.Overhead(x, 1, 0) }"},
		{name: "intrinsic counting conditionally", want: "(*Unit).Bad has no lane form: it counts other than once per call",
			src:  "func row(b *Ops, x int) { u := b.n; u.Bad(x) }",
			neon: "package neon\n\ntype Unit struct{}\n\nfunc (u *Unit) Bad(x int) int {\n\tif x > 0 {\n\t\tu.rec(opBad)\n\t}\n\treturn x\n}\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := real
			d.CV = writePkg(t, map[string]string{"ops.go": ops, "row.go": "package cv\n\n" + c.src + "\n"})
			if c.neon != "" {
				d.NEON = writePkg(t, map[string]string{"neon.go": c.neon})
			}
			out, err := Generate(d)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Generate error = %v, want one containing %q", err, c.want)
			}
			if out != nil {
				t.Fatal("a failed Generate must return no files")
			}
		})
	}

	// A twinnable row passed with its twin generates. Its skeleton keeps
	// the early return, counts the vector loop's trips in closed form, calls
	// no intrinsic, stores nothing, drops the scalar tail and flushes on
	// both exits.
	d := real
	d.CV = writePkg(t, map[string]string{"ops.go": ops, "row.go": "package cv\n\n" +
		"func row(b *Ops, a int, y int) {\nu := b.n\nout := make([]int, a)\nif y > 0 { u.VaddqS16(a, a); return }\n" +
		"x := 0\nfor ; x+8 <= a; x += 8 { out[x] = u.VaddqS16(x, x); u.Overhead(2, 1, 0) }\nfor ; x < a; x++ { out[x] = x }\n}\n\n" +
		"func pass(o *Ops) { parRows(o, 1, 0, row, rowLanes) }\n"})
	out, err := Generate(d)
	if err != nil {
		t.Fatal(err)
	}
	twin := string(out[filepath.Join(d.CV, genFile)])
	lanes := string(out[filepath.Join(d.NEON, genFile)])
	for _, want := range []string{
		"var rowLanes = &twins[func(b *Ops, a int, y int)]{rowPlain, rowSkeleton}",
		"func rowPlain(b *Ops, a int, y int) {\n\tu := neon.Lanes{}\n\tout := make([]int, a)\n\tif y > 0 {\n\t\tu.VaddqS16(a, a)\n",
	} {
		if !strings.Contains(twin, want) {
			t.Fatalf("twin file lacks %q:\n%s", want, twin)
		}
	}
	const flush = "tally[neon.OpAddMovAddr] += nAddMovAddr\n\ttally[neon.OpCmpB] += nCmpB\n\ttally[neon.OpVaddI16] += nVaddI16\n"
	skel := "\nfunc rowSkeleton(b *Ops, a int, y int) {\n\tvar nAddMovAddr, nCmpB, nVaddI16 uint64\n\ttally := b.n.Counts()\n" +
		"\tif y > 0 {\n\t\tnVaddI16++\n\t\t" + strings.ReplaceAll(flush, "\n\t", "\n\t\t") + "\t\treturn\n\t}\n" +
		"\tx := 0\n\tif trips0 := a - (x + 8); trips0 >= 0 {\n\t\ttrips0 = trips0/8 + 1\n\t\tx += trips0 * 8\n" +
		"\t\tnAddMovAddr += 2 * uint64(trips0)\n\t\tnCmpB += uint64(trips0)\n\t\tnVaddI16 += uint64(trips0)\n\t}\n\t" + flush + "}\n"
	if got := funcSource(t, twin, "rowSkeleton"); got != skel {
		t.Fatalf("skeleton\n%s\nwant\n%s", got, skel)
	}
	if strings.Contains(skel, "u.") || strings.Contains(skel, "out") || strings.Count(skel, "tally[neon.OpVaddI16] += nVaddI16") != 2 {
		t.Fatal("a skeleton calls no intrinsic, stores nothing and flushes once per exit")
	}
	if strings.Contains(twin, "OpMov") {
		t.Fatalf("a count of zero needs no local:\n%s", twin)
	}
	for _, want := range []string{"func (u Lanes) VaddqS16(", "func (u Lanes) Overhead(", "OpVaddI16 = opVaddI16"} {
		if !strings.Contains(strings.Join(strings.Fields(lanes), " "), want) {
			t.Fatalf("lane file lacks %q:\n%s", want, lanes)
		}
	}
	if strings.Contains(lanes, "VsubqS16") || strings.Contains(lanes, "u.rec") || strings.Contains(lanes, "u.recN") {
		t.Fatalf("lane methods must be exactly those the twins reach, counting nothing:\n%s", lanes)
	}
}

// TestLaneGenFusesExchanges: a min intrinsic's result assigned, then in the
// next statement the max intrinsic's over the same operands, becomes one
// vec.MinMaxU8 call in the plain twin, while the skeleton, cut from the
// hand-written body, counts both instructions. Anything else stays two
// calls.
func TestLaneGenFusesExchanges(t *testing.T) {
	real := moduleDirs(filepath.Join("..", ".."))
	const ops = "package cv\n\nimport \"simdstudy/internal/vec\"\n\ntype Ops struct{ n, s any }\n\nvar _ vec.V128\n"
	gen := func(t *testing.T, src string) string {
		t.Helper()
		d := real
		d.CV = writePkg(t, map[string]string{"ops.go": ops, "row.go": "package cv\n\n" +
			"func row(b *Ops, x, y, z vec.V128) {\n" + src + "\n}\n\n" +
			"func pass(o *Ops) { parRows(o, 1, 0, row, rowLanes) }\n"})
		out, err := Generate(d)
		if err != nil {
			t.Fatal(err)
		}
		return string(out[filepath.Join(d.CV, genFile)])
	}
	fused := []struct {
		name, src, plain, skeleton, flushMax string
	}{
		{name: "neon define", src: "u := b.n\nlo := u.VminqU8(x, y)\nhi := u.VmaxqU8(x, y)\nkeep(lo, hi)",
			plain:    "func rowPlain(b *Ops, x, y, z vec.V128) {\n\tlo, hi := vec.MinMaxU8(x, y)\n\tkeep(lo, hi)\n}",
			skeleton: "\ttally := b.n.Counts()\n\tnVmaxU8++\n\tnVminU8++\n",
			flushMax: "tally[neon.OpVmaxU8] += nVmaxU8"},
		{name: "sse2 assign", src: "u := b.s\nvar lo, hi vec.V128\nlo = u.MinEpu8(x, y)\nhi = u.MaxEpu8(x, y)\nkeep(lo, hi)",
			plain:    "\tvar lo, hi vec.V128\n\tlo, hi = vec.MinMaxU8(x, y)\n",
			skeleton: "\ttally := b.s.Counts()\n\tnPmaxub++\n\tnPminub++\n",
			flushMax: "tally[sse2.OpPmaxub] += nPmaxub"},
		{name: "indexed operands in a closure", src: "u := b.n\np := [2]vec.V128{x, y}\nop := func(i, j int) {\nlo := u.VminqU8(p[i], p[j])\nhi := u.VmaxqU8(p[i], p[j])\np[i], p[j] = lo, hi\n}\nop(0, 1)",
			plain:    "\t\tlo, hi := vec.MinMaxU8(p[i], p[j])\n\t\tp[i], p[j] = lo, hi\n",
			skeleton: "\ttally := b.n.Counts()\n\tnVmaxU8++\n\tnVminU8++\n",
			flushMax: "tally[neon.OpVmaxU8] += nVmaxU8"},
	}
	for _, c := range fused {
		t.Run(c.name, func(t *testing.T) {
			twin := gen(t, c.src)
			for _, want := range []string{c.plain, c.skeleton, c.flushMax} {
				if !strings.Contains(twin, want) {
					t.Fatalf("twin file lacks %q:\n%s", want, twin)
				}
			}
			if strings.Contains(twin, "u := ") || strings.Contains(twin, "u, tally") {
				t.Fatalf("a twin left with no intrinsic to call must not bind u:\n%s", twin)
			}
		})
	}
	kept := []struct{ name, src string }{
		{"different operands", "lo := u.VminqU8(x, y)\nhi := u.VmaxqU8(x, z)\nkeep(lo, hi)"},
		{"swapped operands", "lo := u.VminqU8(x, y)\nhi := u.VmaxqU8(y, x)\nkeep(lo, hi)"},
		{"a statement between", "lo := u.VminqU8(x, y)\nkeep(lo)\nhi := u.VmaxqU8(x, y)\nkeep(hi)"},
		{"an operand reassigned between", "x = u.VminqU8(x, y)\nz = u.VmaxqU8(x, y)\nkeep(x, z)"},
		{"max before min", "hi := u.VmaxqU8(x, y)\nlo := u.VminqU8(x, y)\nkeep(lo, hi)"},
		{"an operand that calls", "lo := u.VminqU8(f(x), y)\nhi := u.VmaxqU8(f(x), y)\nkeep(lo, hi)"},
		{"mixed assignment", "var hi vec.V128\nlo := u.VminqU8(x, y)\nhi = u.VmaxqU8(x, y)\nkeep(lo, hi)"},
		{"not a byte exchange", "lo := u.VminqS16(x, y)\nhi := u.VmaxqS16(x, y)\nkeep(lo, hi)"},
	}
	for _, c := range kept {
		t.Run(c.name, func(t *testing.T) {
			twin := gen(t, "u := b.n\n"+c.src)
			if strings.Contains(twin, "MinMaxU8") {
				t.Fatalf("the pair must stay two calls:\n%s", twin)
			}
			minCall, maxCall, nMin, nMax := "u.VminqU8(", "u.VmaxqU8(", "nVminU8++", "nVmaxU8++"
			if strings.Contains(c.src, "S16") {
				minCall, maxCall, nMin, nMax = "u.VminqS16(", "u.VmaxqS16(", "nVminS16++", "nVmaxS16++"
			}
			for want, n := range map[string]int{minCall: 1, maxCall: 1, nMin: 1, nMax: 1} {
				if got := strings.Count(twin, want); got != n {
					t.Fatalf("twin file has %d of %q, want %d:\n%s", got, want, n, twin)
				}
			}
		})
	}
}

// funcSource returns the source of func name in a generated file.
func funcSource(t *testing.T, file, name string) string {
	t.Helper()
	i := strings.Index(file, "\nfunc "+name+"(")
	if i < 0 {
		t.Fatalf("no func %s in:\n%s", name, file)
	}
	j := strings.Index(file[i:], "\n}\n")
	return file[i : i+j+3]
}

// TestLaneGenSplitsTapChain: the SSE2 Gaussian rows' plain twins run their
// tap chain on split registers behind the row test, with the loop as it was
// for a failing test, while their skeletons, cut from the hand-written
// bodies, count the intrinsics the split replaces. The NEON Gaussian's
// vmull/vmlal chain and every shape the rule does not cover keep their
// loop as it is.
func TestLaneGenSplitsTapChain(t *testing.T) {
	real := moduleDirs(filepath.Join("..", ".."))
	out, err := Generate(real)
	if err != nil {
		t.Fatal(err)
	}
	twin := string(out[filepath.Join(real.CV, genFile)])
	for _, name := range []string{"gaussHorizSSE2Row", "gaussVertSSE2Row"} {
		fn := funcSource(t, twin, name+plainSuffix)
		test := "if vec.SplitFits(a.zero, a.wv[:], a.half, gaussShift) {"
		split, fallback, ok := strings.Cut(fn, "} else {")
		if !strings.Contains(split, test) || !ok {
			t.Fatalf("%s has no split loop behind the row test:\n%s", name, fn)
		}
		for _, want := range []string{"vec.SplitU8(u.LoadlEpi64U8(", "vec.SplitMulU16(v, a.wv[0])",
			"acc = vec.SplitAddU16(acc, vec.SplitMulU16(v, a.wv[k]))", "u.SrliEpi16(vec.SplitAddU16(acc, a.half), gaussShift)",
			"u.StorelEpi64U8(out[x:], vec.SplitPackU8("} {
			if !strings.Contains(split, want) {
				t.Fatalf("%s's split loop lacks %q:\n%s", name, want, fn)
			}
		}
		if strings.Contains(split, "u.UnpackloEpi8") || strings.Contains(split, "u.MulloEpi16") ||
			strings.Contains(fallback, "vec.Split") || !strings.Contains(fallback, "u.PackusEpi16(") {
			t.Fatalf("%s mixes its split and fallback loops:\n%s", name, fn)
		}
		sk := funcSource(t, twin, name+skeletonSuffix)
		if strings.Contains(sk, "Split") || strings.Contains(sk, "u.") {
			t.Fatalf("%s's skeleton must count the hand-written chain and call nothing:\n%s", name, sk)
		}
		for _, inc := range []string{"nPunpcklbw += ", "nPmullw += ", "nPaddw += ", "nPsrlw += ", "nPackuswb += ", "nMovqLd += ", "nMovqSt += "} {
			if !strings.Contains(sk, inc) {
				t.Fatalf("%s's skeleton lacks %s:\n%s", name, inc, sk)
			}
		}
	}
	for _, name := range []string{"gaussHorizNEONRow", "gaussVertNEONRow"} {
		if fn := funcSource(t, twin, name+plainSuffix); strings.Contains(fn, "vec.Split") {
			t.Fatalf("the NEON vmull/vmlal chain must stay as it is:\n%s", fn)
		}
	}

	const ops = "package cv\n\nimport \"simdstudy/internal/vec\"\n\ntype Ops struct{ n, s any }\n\n" +
		"type args struct {\n\tsrc, dst []uint8\n\tw int\n\twv [7]vec.V128\n\twd [7]vec.V64\n\tzero, half vec.V128\n}\n\nconst shift = 8\n"
	gen := func(t *testing.T, params, src string) string {
		t.Helper()
		d := real
		d.CV = writePkg(t, map[string]string{"ops.go": ops, "row.go": "package cv\n\n" +
			"func row(b *Ops, " + params + ", y int) {\n" + src + "\n}\n\n" +
			"func pass(o *Ops) { parRows(o, 1, args{}, row, rowLanes) }\n"})
		out, err := Generate(d)
		if err != nil {
			t.Fatal(err)
		}
		return string(out[filepath.Join(d.CV, genFile)])
	}
	const loop = `u := b.s
x := 0
for ; x+8 <= a.w; x += 8 {
	v := u.UnpackloEpi8(u.LoadlEpi64U8(a.src[x:]), a.zero)
	acc := u.MulloEpi16(v, a.wv[0])
	for k := 1; k < 7; k++ {
		v = u.UnpackloEpi8(u.LoadlEpi64U8(a.src[x+k:]), a.zero)
		acc = u.AddEpi16(acc, u.MulloEpi16(v, a.wv[k]))
	}
	r := u.SrliEpi16(u.AddEpi16(acc, a.half), shift)
	u.StorelEpi64U8(a.dst[x:], u.PackusEpi16(r, r))
	u.Overhead(2, 1, 0)
}`
	if twin := gen(t, "a args", loop); !strings.Contains(twin, "if vec.SplitFits(a.zero, a.wv[:], a.half, shift) {") ||
		strings.Count(twin, "vec.SplitPackU8(r)") != 1 {
		t.Fatalf("the rule must split the chain in the plain twin:\n%s", twin)
	}
	kept := []struct {
		name, params string
		edits        []string // from, to pairs, each replaced throughout
	}{
		{"zero assigned in the body", "a args, z vec.V128", []string{"a.zero)", "z)", "x := 0", "x := 0\nz = a.half"}},
		{"a tap assigned in the body", "a args", []string{"x := 0", "x := 0\na.wv[3] = a.half"}},
		{"the args taken by address", "a args", []string{"x := 0", "x := 0\nkeep(&a)"}},
		{"the args declared anew", "a args", []string{"x := 0", "x := 0\nvar a args"}},
		{"args behind a pointer", "a *args", nil},
		{"a tap in a loop local", "a args", []string{"a.wv[k]", "taps[k]", "x := 0", "x := 0\ntaps := a.wv"}},
		{"the first tap among the loop's", "a args", []string{"k := 1", "k := 0"}},
		{"a tap count that varies", "a args", []string{"k < 7", "k < y"}},
		{"a shift that is no constant", "a args", []string{"a.half), shift)", "a.half), uint(y))"}},
		{"an unpack operand that differs", "a args", []string{"a.src[x+k:]), a.zero)", "a.src[x+k:]), a.half)"}},
		{"a pack of two registers", "a args", []string{"u.PackusEpi16(r, r)", "u.PackusEpi16(r, acc)"}},
		{"a result stored unpacked", "a args", []string{"u.StorelEpi64U8(a.dst[x:], u.PackusEpi16(r, r))", "u.StorelEpi64U8(a.dst[x:], r)"}},
		{"a result read after the store", "a args", []string{"u.Overhead(2, 1, 0)", "keep(r)"}},
		{"a signed shift", "a args", []string{"u.SrliEpi16(", "u.SraiEpi16("}},
		{"a saturating add", "a args", []string{"acc = u.AddEpi16(", "acc = u.AddsEpi16("}},
	}
	for _, c := range kept {
		t.Run(c.name, func(t *testing.T) {
			src := strings.NewReplacer(c.edits...).Replace(loop)
			if twin := gen(t, c.params, src); strings.Contains(twin, "vec.Split") {
				t.Fatalf("the loop must stay as it is:\n%s", twin)
			}
		})
	}
	t.Run("neon vmull/vmlal chain", func(t *testing.T) {
		src := `u := b.n
x := 0
for ; x+8 <= a.w; x += 8 {
	acc := u.VmullU8(u.Vld1U8(a.src[x:]), a.wd[0])
	for k := 1; k < 7; k++ {
		acc = u.VmlalU8(acc, u.Vld1U8(a.src[x+k:]), a.wd[k])
	}
	u.Vst1U8(a.dst[x:], u.VrshrnNU16(acc, shift))
	u.Overhead(2, 1, 0)
}`
		if twin := gen(t, "a args", src); strings.Contains(twin, "vec.Split") {
			t.Fatalf("the NEON chain must stay as it is:\n%s", twin)
		}
	})
}

// TestLaneGenHoistsTrips: a skeleton loop whose body counts alike on every
// trip runs once, its counts scaled by the trip count, for each header
// shape the closed form covers, conjunctions of bounds among them, so an
// edge loop left with nothing to count moves its counter without looping;
// any other loop keeps running.
func TestLaneGenHoistsTrips(t *testing.T) {
	real := moduleDirs(filepath.Join("..", ".."))
	const ops = "package cv\n\ntype Ops struct{ n, s any }\n"
	gen := func(t *testing.T, src string) string {
		t.Helper()
		d := real
		d.CV = writePkg(t, map[string]string{"ops.go": ops, "row.go": "package cv\n\n" +
			"func row(b *Ops, a int, y int) {\nu := b.n\nx := y\n" + src + "\n}\n\n" +
			"func pass(o *Ops) { parRows(o, 1, 0, row, rowLanes) }\n"})
		out, err := Generate(d)
		if err != nil {
			t.Fatal(err)
		}
		return funcSource(t, string(out[filepath.Join(d.CV, genFile)]), "rowSkeleton")
	}
	hoisted := []struct{ name, src, want string }{
		{"declared counter", "for k := 1; k < 7; k++ { u.VaddqS16(a, a) }",
			"\tif trips0 := 7 - 1 - 1; trips0 >= 0 {\n\t\ttrips0++\n\t\tnVaddI16 += uint64(trips0)\n\t}\n"},
		{"stepped bound", "for ; x <= a-4; x += 4 { u.VaddqS16(a, a) }",
			"\tif trips0 := a - 4 - x; trips0 >= 0 {\n\t\ttrips0 = trips0/4 + 1\n\t\tx += trips0 * 4\n\t\tnVaddI16 += uint64(trips0)\n\t}\n"},
		{"nested, under a switch", "for ; x+8 <= a; x += 8 { switch y { case 1: u.VaddqS16(a, a) }; for k := 0; k < 3; k++ { u.VaddqS16(a, a) } }",
			"\t\tswitch y {\n\t\tcase 1:\n\t\t\tnVaddI16 += uint64(trips0)\n\t\t}\n\t\tif trips1 := 3 - 1 - 0; trips1 >= 0 {\n\t\t\ttrips1++\n\t\t\tnVaddI16 += uint64(trips1) * uint64(trips0)\n"},
		{"a conjunction of bounds", "for ; x < 3 && x+1 <= a; x++ { u.VaddqS16(a, a) }",
			"\tif trips0 := min(3-1-x, a-(x+1)); trips0 >= 0 {\n\t\ttrips0++\n\t\tx += trips0\n\t\tnVaddI16 += uint64(trips0)\n\t}\n"},
		{"an empty edge loop", "for ; x < 3 && x < a; x++ {}\nfor ; x+8 <= a; x += 8 { u.VaddqS16(a, a) }",
			"\tif trips0 := min(3-1-x, a-1-x); trips0 >= 0 {\n\t\ttrips0++\n\t\tx += trips0\n\t}\n\tif trips0 := a - (x + 8); trips0 >= 0 {\n"},
	}
	for _, c := range hoisted {
		t.Run(c.name, func(t *testing.T) {
			if sk := gen(t, c.src); !strings.Contains(sk, c.want) || strings.Contains(sk, "for ") {
				t.Fatalf("skeleton\n%s\nlacks\n%s", sk, c.want)
			}
		})
	}
	kept := []struct{ name, src string }{
		{"a condition of two parts", "for ; x < a && y > 0; x++ { u.VaddqS16(a, a) }"},
		{"a body reading the counter", "for ; x < a; x++ { if x > 3 { u.VaddqS16(a, a) } }"},
		{"a body moving the bound", "for ; x < a; x++ { u.VaddqS16(a, a); a-- }"},
		{"a step that is no constant", "for ; x < a; x += y { u.VaddqS16(a, a) }"},
		{"a greater-than bound", "for ; a > x; x++ { u.VaddqS16(a, a) }"},
	}
	for _, c := range kept {
		t.Run(c.name, func(t *testing.T) {
			if sk := gen(t, c.src); strings.Contains(sk, "trips") || !strings.Contains(sk, "\tfor ;") {
				t.Fatalf("the loop must keep running:\n%s", sk)
			}
		})
	}
}

// TestLaneGenRewritesSSE2Idioms: the plain twins run SSE2's sign-mask
// absolute value as vec.AbsSatI16 and a pack of a compare mask with itself
// as the truncating narrow, while the skeletons count the intrinsics the
// body calls; any other shape keeps its calls.
func TestLaneGenRewritesSSE2Idioms(t *testing.T) {
	real := moduleDirs(filepath.Join("..", ".."))
	const ops = "package cv\n\nimport \"simdstudy/internal/vec\"\n\ntype Ops struct{ n, s any }\n\nvar _ vec.V128\n"
	gen := func(t *testing.T, src string) string {
		t.Helper()
		d := real
		d.CV = writePkg(t, map[string]string{"ops.go": ops, "row.go": "package cv\n\n" +
			"func row(b *Ops, x, y, z vec.V128) {\nu := b.s\n" + src + "\n}\n\n" +
			"func pass(o *Ops) { parRows(o, 1, 0, row, rowLanes) }\n"})
		out, err := Generate(d)
		if err != nil {
			t.Fatal(err)
		}
		return string(out[filepath.Join(d.CV, genFile)])
	}
	rewritten := []struct{ name, src, plain, skeleton string }{
		{"abs in a closure", "abs := func(v vec.V128) vec.V128 {\nsign := u.SraiEpi16(v, 15)\nreturn u.SubsEpi16(u.XorSi128(v, sign), sign)\n}\nkeep(abs(x))",
			"\tabs := func(v vec.V128) vec.V128 {\n\t\treturn vec.AbsSatI16(v)\n\t}\n",
			"\tnPsraw++\n\tnPsubsw++\n\tnPxor++\n"},
		{"abs, xor operands swapped", "s := u.SraiEpi16(x, 15)\nr := u.SubsEpi16(u.XorSi128(s, x), s)\nkeep(r)",
			"\tr := vec.AbsSatI16(x)\n\tkeep(r)\n", "\tnPsraw++\n\tnPsubsw++\n\tnPxor++\n"},
		{"mask pack", "m := u.CmpgtEpi16(x, y)\nu.StorelEpi64U8(nil, u.PacksEpi16(m, m))",
			"\tm := u.CmpgtEpi16(x, y)\n\tu.StorelEpi64U8(nil, vec.Combine(vec.NarrowU16(m), vec.NarrowU16(m)))\n",
			"\tnMovqSt++\n\tnPacksswb++\n\tnPcmpgtw++\n"},
	}
	for _, c := range rewritten {
		t.Run(c.name, func(t *testing.T) {
			twin := gen(t, c.src)
			if plain := funcSource(t, twin, "rowPlain"); !strings.Contains(plain, c.plain) {
				t.Fatalf("plain twin lacks\n%s\n%s", c.plain, plain)
			}
			if sk := funcSource(t, twin, "rowSkeleton"); !strings.Contains(sk, c.skeleton) {
				t.Fatalf("skeleton lacks\n%s\n%s", c.skeleton, sk)
			}
		})
	}
	kept := []struct{ name, src, call string }{
		{"a shift other than 15", "s := u.SraiEpi16(x, 14)\nkeep(u.SubsEpi16(u.XorSi128(x, s), s))", "u.SraiEpi16("},
		{"the sign mask read again", "s := u.SraiEpi16(x, 15)\nr := u.SubsEpi16(u.XorSi128(x, s), s)\nkeep(r, s)", "u.SraiEpi16("},
		{"another operand", "s := u.SraiEpi16(x, 15)\nkeep(u.SubsEpi16(u.XorSi128(y, s), s))", "u.SraiEpi16("},
		{"a statement between", "s := u.SraiEpi16(x, 15)\nkeep(s)\nkeep(u.SubsEpi16(u.XorSi128(x, s), s))", "u.SraiEpi16("},
		{"a pack of two registers", "m := u.CmpgtEpi16(x, y)\nkeep(u.PacksEpi16(m, x))", "u.PacksEpi16("},
		{"a pack of no mask", "m := u.AddsEpi16(x, y)\nkeep(u.PacksEpi16(m, m))", "u.PacksEpi16("},
	}
	for _, c := range kept {
		t.Run(c.name, func(t *testing.T) {
			if plain := funcSource(t, gen(t, c.src), "rowPlain"); !strings.Contains(plain, c.call) || strings.Contains(plain, "AbsSatI16") || strings.Contains(plain, "NarrowU16") {
				t.Fatalf("the calls must stay:\n%s", plain)
			}
		})
	}
}
