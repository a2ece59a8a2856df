package simdstudy

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"simdstudy/internal/cv"
)

var updateTraceGolden = flag.Bool("update-trace-golden", false, "rewrite testdata/trace_summary.golden")

// TestTraceSummaryGolden pins the absolute instruction counts behind the
// paper's inst/px tables: the full Counter.Summary (opcodes, classes, bytes
// and events) of the five paper benchmarks at 640x480 on burst image 1, for
// every ISA and band count 1, 2 and 7. The count-identity tests compare two
// paths of the same build; this one compares against fixed counts checked
// into testdata, so a shift that hits every path alike still fails.
func TestTraceSummaryGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("traces 45 full VGA kernel calls")
	}
	res := Resolution{Width: 640, Height: 480}
	u8, f32 := Synthetic(res, 1), SyntheticF32(res, 1)
	benches := []struct {
		name string
		run  func(o *Ops) error
	}{
		{"ConvertFloatShort", func(o *Ops) error { return o.ConvertF32ToS16(f32, NewMat(640, 480, S16)) }},
		{"BinThr", func(o *Ops) error { return o.Threshold(u8, NewMat(640, 480, U8), 128, 255, ThreshTrunc) }},
		{"GauBlu", func(o *Ops) error { return o.GaussianBlur(u8, NewMat(640, 480, U8)) }},
		{"SobFil", func(o *Ops) error { return o.SobelFilter(u8, NewMat(640, 480, S16), 1, 0) }},
		{"EdgDet", func(o *Ops) error { return o.DetectEdges(u8, NewMat(640, 480, U8), 100) }},
	}
	var sb strings.Builder
	for _, b := range benches {
		for _, isa := range []ISA{ISANEON, ISASSE2, ISAScalar} {
			for _, workers := range []int{1, 2, 7} {
				tr := NewTrace()
				o := NewOps(isa, tr)
				o.SetParallel(cv.ParallelConfig{Workers: workers})
				if err := b.run(o); err != nil {
					t.Fatalf("%s/%v/w=%d: %v", b.name, isa, workers, err)
				}
				fmt.Fprintf(&sb, "== %s %v workers=%d\n%s", b.name, isa, workers, tr.Summary())
			}
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "trace_summary.golden")
	if *updateTraceGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test -run TestTraceSummaryGolden -update-trace-golden): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("trace summary differs from golden at line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("trace summary differs from golden in length: %d lines, want %d", len(gl), len(wl))
	}
}
