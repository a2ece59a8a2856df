// Command benchjson converts `go test -bench` text output into a stable
// JSON document, so CI can archive benchmark runs as machine-readable
// artifacts and gate on them. It also enforces the zero-allocation
// contract for the hot kernel paths: with -fail-allocs, any matching
// benchmark that reports a non-zero allocs/op fails the run.
//
// With -compare it additionally gates on performance history: for every
// benchmark present both in this run and in prior BENCH_*.json documents,
// the new ns/op must not exceed the best (lowest) prior ns/op by more than
// -max-regression (default 10%). Benchmarks new to this run pass trivially;
// a prior benchmark that vanished is reported but does not fail (suites
// grow and get renamed). Only documents from the same machine shape gate:
// a prior document whose cpu, num_cpu or gomaxprocs differs from this
// run's is reported and skipped, since a wall-clock figure from another
// shape says nothing about a regression on this one.
//
// Usage:
//
//	go test -run '^$' -bench Host -benchmem . | benchjson -out BENCH.json
//	benchjson -in bench.txt -out BENCH.json -fail-allocs '^BenchmarkHostConvert'
//	benchjson -in bench.txt -out BENCH_7.json -compare 'bench-history/BENCH_*.json'
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// HasMem records whether the line carried -benchmem columns, so a
	// zero AllocsPerOp from a run without -benchmem is not mistaken for
	// a verified zero-allocation result.
	HasMem bool `json:"has_mem"`
}

// Document is the whole run: the go test environment header, the
// machine shape it ran on, and every benchmark line, in input order.
type Document struct {
	GOOS   string `json:"goos,omitempty"`
	GOARCH string `json:"goarch,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// NumCPU is the logical CPU count of the machine benchjson ran on,
	// which is the machine that ran the benchmarks.
	NumCPU int `json:"num_cpu,omitempty"`
	// GOMAXPROCS is read from the first benchmark name's -N suffix; go
	// test omits the suffix when it is 1.
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// benchLine matches "BenchmarkName-8   	 100	 123 ns/op	..." including
// sub-benchmark names with slashes and the optional -GOMAXPROCS suffix.
var benchLine = regexp.MustCompile(`^(Benchmark\S*)\s+(\d+)\s+(.*)$`)

// procsSuffix is the -GOMAXPROCS suffix go test appends to a name.
var procsSuffix = regexp.MustCompile(`-(\d+)$`)

func parse(r io.Reader) (*Document, error) {
	doc := &Document{Benchmarks: []Result{}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.GOOS = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			doc.GOARCH = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "pkg: "):
			doc.Pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: %q: bad iteration count: %v", line, err)
		}
		res := Result{Name: m[1], Iterations: iters}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: %q: bad value %q: %v", line, fields[i], err)
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = val
			case "MB/s":
				res.MBPerS = val
			case "B/op":
				res.BytesPerOp = int64(val)
				res.HasMem = true
			case "allocs/op":
				res.AllocsPerOp = int64(val)
				res.HasMem = true
			}
		}
		if len(doc.Benchmarks) == 0 {
			doc.GOMAXPROCS = 1
			if m := procsSuffix.FindStringSubmatch(res.Name); m != nil {
				doc.GOMAXPROCS, _ = strconv.Atoi(m[1])
			}
		}
		doc.Benchmarks = append(doc.Benchmarks, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return doc, nil
}

// sameShape reports whether two documents come from the same machine
// shape: CPU model, logical CPU count and GOMAXPROCS.
func sameShape(a, b *Document) bool {
	return a.CPU == b.CPU && a.NumCPU == b.NumCPU && a.GOMAXPROCS == b.GOMAXPROCS
}

// checkAllocs returns the names of benchmarks matching pat that either
// allocate or were run without -benchmem (unverifiable counts as failure:
// the gate must not silently pass because the columns were missing).
func checkAllocs(doc *Document, pat *regexp.Regexp) []string {
	var bad []string
	matched := false
	for _, b := range doc.Benchmarks {
		if !pat.MatchString(b.Name) {
			continue
		}
		matched = true
		if !b.HasMem {
			bad = append(bad, b.Name+" (no -benchmem columns)")
		} else if b.AllocsPerOp > 0 {
			bad = append(bad, fmt.Sprintf("%s (%d allocs/op)", b.Name, b.AllocsPerOp))
		}
	}
	if !matched {
		bad = append(bad, fmt.Sprintf("no benchmark matched %q", pat))
	}
	return bad
}

// loadDoc reads one previously emitted benchjson document.
func loadDoc(path string) (*Document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Document
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &doc, nil
}

// checkRegression compares doc against every document matching the glob:
// the baseline per benchmark is the best (lowest) prior ns/op — comparing
// against the best rather than the latest stops a slow creep where each
// run regresses just under the threshold against its predecessor. A prior
// document from another machine shape is reported and skipped. Returns
// failures and a count of benchmarks actually compared.
func checkRegression(doc *Document, glob string, maxRegression float64) (bad []string, compared int, err error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, 0, fmt.Errorf("bad -compare pattern: %v", err)
	}
	sort.Strings(paths)
	best := map[string]struct {
		ns   float64
		path string
	}{}
	for _, p := range paths {
		prior, err := loadDoc(p)
		if err != nil {
			// An empty or truncated history document (an interrupted cache
			// save, a cold cache seeded with a zero-byte placeholder) is not
			// a regression — this run becomes the baseline that replaces it.
			// Only gate-worthy history gates.
			fmt.Fprintf(os.Stderr, "benchjson: note: skipping unreadable history %s: %v\n", p, err)
			continue
		}
		if !sameShape(doc, prior) {
			fmt.Fprintf(os.Stderr, "benchjson: note: skipping history %s from another machine shape "+
				"(cpu %q, num_cpu %d, gomaxprocs %d; this run: cpu %q, num_cpu %d, gomaxprocs %d)\n",
				p, prior.CPU, prior.NumCPU, prior.GOMAXPROCS, doc.CPU, doc.NumCPU, doc.GOMAXPROCS)
			continue
		}
		for _, b := range prior.Benchmarks {
			if b.NsPerOp <= 0 {
				continue
			}
			if cur, ok := best[b.Name]; !ok || b.NsPerOp < cur.ns {
				best[b.Name] = struct {
					ns   float64
					path string
				}{b.NsPerOp, p}
			}
		}
	}
	if len(best) == 0 {
		// No history yet (first run populating the cache) — nothing to gate.
		return nil, 0, nil
	}
	seen := map[string]bool{}
	for _, b := range doc.Benchmarks {
		seen[b.Name] = true
		base, ok := best[b.Name]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		compared++
		if b.NsPerOp > base.ns*(1+maxRegression) {
			bad = append(bad, fmt.Sprintf("%s: %.1f ns/op vs best %.1f ns/op in %s (+%.1f%%, limit %.0f%%)",
				b.Name, b.NsPerOp, base.ns, base.path,
				100*(b.NsPerOp/base.ns-1), 100*maxRegression))
		}
	}
	for name := range best {
		if !seen[name] {
			fmt.Fprintf(os.Stderr, "benchjson: note: benchmark %s in history but not in this run\n", name)
		}
	}
	return bad, compared, nil
}

func main() {
	in := flag.String("in", "-", "benchmark text input file (- for stdin)")
	out := flag.String("out", "-", "JSON output file (- for stdout)")
	failAllocs := flag.String("fail-allocs", "", "regexp of benchmark names that must report 0 allocs/op")
	compare := flag.String("compare", "", "glob of prior BENCH_*.json documents; fail if ns/op regresses past -max-regression vs the best prior run")
	maxRegression := flag.Float64("max-regression", 0.10, "allowed fractional ns/op slowdown vs the best prior run")
	flag.Parse()

	var src io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		src = f
	}
	doc, err := parse(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines in input")
		os.Exit(1)
	}
	doc.NumCPU = runtime.NumCPU()

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	if *failAllocs != "" {
		pat, err := regexp.Compile(*failAllocs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: bad -fail-allocs:", err)
			os.Exit(1)
		}
		if bad := checkAllocs(doc, pat); len(bad) > 0 {
			for _, b := range bad {
				fmt.Fprintln(os.Stderr, "benchjson: allocation gate failed:", b)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: allocation gate passed for %s\n", *failAllocs)
	}

	if *compare != "" {
		bad, compared, err := checkRegression(doc, *compare, *maxRegression)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if len(bad) > 0 {
			for _, b := range bad {
				fmt.Fprintln(os.Stderr, "benchjson: regression gate failed:", b)
			}
			os.Exit(1)
		}
		if compared == 0 {
			fmt.Fprintln(os.Stderr, "benchjson: regression gate: no prior history, nothing to compare")
		} else {
			fmt.Fprintf(os.Stderr, "benchjson: regression gate passed (%d benchmarks vs %s)\n",
				compared, *compare)
		}
	}
}
