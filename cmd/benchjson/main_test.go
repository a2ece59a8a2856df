package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: simdstudy
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkHostConvertScalar   	      20	   3597104 ns/op	 341.61 MB/s	       0 B/op	       0 allocs/op
BenchmarkHostConvertNEONEmu  	      20	   8275715 ns/op	 148.48 MB/s	       0 B/op	       0 allocs/op
BenchmarkHostParallel/Gaussian/workers=4-8         	       2	 135796402 ns/op	  15.27 MB/s	    3524 B/op	      33 allocs/op
BenchmarkNoMemColumns 	     100	     12345 ns/op
PASS
ok  	simdstudy	6.610s
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.GOOS != "linux" || doc.GOARCH != "amd64" || doc.Pkg != "simdstudy" {
		t.Fatalf("header: %+v", doc)
	}
	if len(doc.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Name != "BenchmarkHostConvertScalar" || b.Iterations != 20 ||
		b.NsPerOp != 3597104 || b.MBPerS != 341.61 || b.AllocsPerOp != 0 || !b.HasMem {
		t.Fatalf("first benchmark: %+v", b)
	}
	par := doc.Benchmarks[2]
	if par.Name != "BenchmarkHostParallel/Gaussian/workers=4-8" || par.AllocsPerOp != 33 {
		t.Fatalf("sub-benchmark: %+v", par)
	}
	if doc.Benchmarks[3].HasMem {
		t.Fatal("line without -benchmem columns must not claim memory data")
	}
	if doc.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Fatalf("cpu = %q", doc.CPU)
	}
	// The first benchmark line carries no -N suffix: go test ran it at
	// GOMAXPROCS 1.
	if doc.GOMAXPROCS != 1 {
		t.Fatalf("gomaxprocs = %d, want 1", doc.GOMAXPROCS)
	}
}

// TestParseGOMAXPROCS reads the machine's GOMAXPROCS from the -N name
// suffix, sub-benchmark names included.
func TestParseGOMAXPROCS(t *testing.T) {
	for in, want := range map[string]int{
		"BenchmarkHostSynthesize/bands=2-4 \t 10 \t 5 ns/op\n":        4,
		"BenchmarkHostConvertScalar-16 \t 10 \t 5 ns/op\n":            16,
		"BenchmarkHostSynthesize/bands=1 \t 10 \t 5 ns/op\n":          1,
		"BenchmarkA-2 \t 10 \t 5 ns/op\nBenchmarkB \t 1 \t 5 ns/op\n": 2,
	} {
		doc, err := parse(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		if doc.GOMAXPROCS != want {
			t.Errorf("%q: gomaxprocs %d, want %d", in, doc.GOMAXPROCS, want)
		}
	}
}

// TestCheckRegressionSkipsOtherMachineShapes: history from a different
// CPU model, logical CPU count or GOMAXPROCS is reported and skipped, never
// failed against; history from the same shape still gates.
func TestCheckRegressionSkipsOtherMachineShapes(t *testing.T) {
	dir := t.TempDir()
	doc := &Document{CPU: "cpuA", NumCPU: 2, GOMAXPROCS: 2,
		Benchmarks: []Result{{Name: "BenchmarkX-2", NsPerOp: 100}}}
	others := []string{
		`{"cpu":"cpuB","num_cpu":2,"gomaxprocs":2,"benchmarks":[{"name":"BenchmarkX-2","ns_per_op":10}]}`,
		`{"cpu":"cpuA","num_cpu":8,"gomaxprocs":2,"benchmarks":[{"name":"BenchmarkX-2","ns_per_op":10}]}`,
		`{"cpu":"cpuA","num_cpu":2,"gomaxprocs":1,"benchmarks":[{"name":"BenchmarkX-2","ns_per_op":10}]}`,
		`{"benchmarks":[{"name":"BenchmarkX-2","ns_per_op":10}]}`,
	}
	for i, content := range others {
		name := filepath.Join(dir, "BENCH_"+string(rune('a'+i))+".json")
		if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bad, compared, err := checkRegression(doc, filepath.Join(dir, "BENCH_*.json"), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 || compared != 0 {
		t.Fatalf("bad=%v compared=%d, want every other-shape document skipped", bad, compared)
	}

	same := `{"cpu":"cpuA","num_cpu":2,"gomaxprocs":2,"benchmarks":[{"name":"BenchmarkX-2","ns_per_op":50}]}`
	if err := os.WriteFile(filepath.Join(dir, "BENCH_z.json"), []byte(same), 0o644); err != nil {
		t.Fatal(err)
	}
	bad, compared, err = checkRegression(doc, filepath.Join(dir, "BENCH_*.json"), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if compared != 1 || len(bad) != 1 || !strings.Contains(bad[0], "BENCH_z.json") {
		t.Fatalf("bad=%v compared=%d, want the 2x regression flagged against the same-shape doc", bad, compared)
	}
}

func TestCheckAllocs(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if bad := checkAllocs(doc, regexp.MustCompile(`^BenchmarkHostConvert`)); len(bad) != 0 {
		t.Fatalf("zero-alloc benchmarks failed the gate: %v", bad)
	}
	if bad := checkAllocs(doc, regexp.MustCompile(`^BenchmarkHostParallel`)); len(bad) != 1 {
		t.Fatalf("allocating benchmark passed the gate: %v", bad)
	}
	if bad := checkAllocs(doc, regexp.MustCompile(`^BenchmarkNoMem`)); len(bad) != 1 {
		t.Fatalf("missing -benchmem columns must fail the gate: %v", bad)
	}
	if bad := checkAllocs(doc, regexp.MustCompile(`^BenchmarkNothingMatches`)); len(bad) != 1 {
		t.Fatalf("an unmatched pattern must fail the gate: %v", bad)
	}
}

// TestCheckRegressionSkipsUnreadableHistory: an empty or corrupt history
// document (interrupted cache save, zero-byte placeholder) must not fail
// the gate — it is skipped and this run seeds the baseline. Readable
// history alongside it still gates.
func TestCheckRegressionSkipsUnreadableHistory(t *testing.T) {
	dir := t.TempDir()
	writeFile := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("BENCH_1.json", "") // zero-byte placeholder
	writeFile("BENCH_2.json", "{not json")
	doc := &Document{Benchmarks: []Result{{Name: "BenchmarkX", NsPerOp: 100}}}

	bad, compared, err := checkRegression(doc, filepath.Join(dir, "BENCH_*.json"), 0.10)
	if err != nil {
		t.Fatalf("unreadable-only history errored: %v", err)
	}
	if len(bad) != 0 || compared != 0 {
		t.Fatalf("bad=%v compared=%d, want clean no-history pass", bad, compared)
	}

	// A readable document beside the corrupt ones still gates.
	writeFile("BENCH_3.json", `{"benchmarks":[{"name":"BenchmarkX","ns_per_op":50}]}`)
	bad, compared, err = checkRegression(doc, filepath.Join(dir, "BENCH_*.json"), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if compared != 1 || len(bad) != 1 {
		t.Fatalf("bad=%v compared=%d, want the 2x regression flagged against the readable doc", bad, compared)
	}
}
