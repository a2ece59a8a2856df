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

	// The same row, twinnable and passed with its twin, generates.
	d := real
	d.CV = writePkg(t, map[string]string{"ops.go": ops, "row.go": "package cv\n\n" +
		"func row(b *Ops, a int, y int) { u := b.n; u.VaddqS16(a, a) }\n\n" +
		"func pass(o *Ops) { parRows(o, 1, 0, row, rowLanes) }\n"})
	out, err := Generate(d)
	if err != nil {
		t.Fatal(err)
	}
	twin := string(out[filepath.Join(d.CV, genFile)])
	lanes := string(out[filepath.Join(d.NEON, genFile)])
	if !strings.Contains(twin, "func rowLanes(b *Ops, a int, y int) {\n\tu, _ := b.n.Lanes()") {
		t.Fatalf("twin file:\n%s", twin)
	}
	if !strings.Contains(lanes, "func (u Lanes) VaddqS16(") || strings.Contains(lanes, "VsubqS16") {
		t.Fatalf("lane methods must be exactly those the twins reach:\n%s", lanes)
	}
}
