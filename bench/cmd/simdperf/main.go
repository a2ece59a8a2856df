// Command simdperf is the repository's benchmark: it serves seeded request
// schedules through simdserved's handler in process and runs the paper's
// traced kernels, checks every output against a serial reference, and
// reports end-to-end metrics per workload, or per-layer metrics from a
// separate traced run.
//
// Usage (from the bench directory):
//
//	go run ./cmd/simdperf -seed 1 -out results          # every workload, one child process each
//	go run ./cmd/simdperf -seed 1 -trace 1 -out results # per-layer metrics, Chrome traces, layer tables
//	go run ./cmd/simdperf -runs 5 -out results          # repeatability: medians, quartiles, spreads
//	go run ./cmd/simdperf -workload vga_mixed -seed 7 -seconds 20 -trace 0
//
// With -workload the run happens in this process, prints each metric as
// "workload metric value unit" and ends with one JSON line holding
// correct, attempted, failed and metrics. The exit status is non-zero when
// an output fails verification.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"simdstudy/bench/simdperf"
)

func main() {
	workload := flag.String("workload", "", "run only this workload, in this process (empty: every workload, each in a child process)")
	seed := flag.Uint64("seed", 1, "seed of the request schedules")
	seconds := flag.Int("seconds", 20, "length of each timed phase in seconds")
	traceRun := flag.Int("trace", 0, "1 runs the traced variant: per-layer metrics, Chrome trace and layer table")
	out := flag.String("out", ".bench_build/simdperf", "directory for run documents, Chrome traces and layer tables")
	runs := flag.Int("runs", 1, "repeat every workload this many times, alternating the order, and report the spread")
	flag.Parse()

	if *seconds < 1 || *runs < 1 || (*traceRun != 0 && *traceRun != 1) {
		fmt.Fprintln(os.Stderr, "simdperf: want -seconds >= 1, -runs >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	opt := simdperf.Options{
		Seed:   *seed,
		Run:    time.Duration(*seconds) * time.Second,
		Trace:  *traceRun == 1,
		OutDir: *out,
		Log:    os.Stderr,
	}
	if *workload != "" {
		os.Exit(runOne(*workload, opt))
	}
	os.Exit(runAll(opt, *runs))
}

// runOne runs a workload in this process and prints its result.
func runOne(name string, opt simdperf.Options) int {
	w, err := simdperf.WorkloadNamed(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simdperf:", err)
		return 2
	}
	rep, err := simdperf.Run(w, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simdperf: %s: %v\n", name, err)
		return 1
	}
	printMetrics(os.Stdout, name, rep, opt.Trace)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simdperf:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		fmt.Fprintf(os.Stderr, "simdperf: %s: outputs failed verification\n", name)
		return 1
	}
	return 0
}

func printMetrics(out io.Writer, workload string, rep simdperf.Report, traced bool) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(out, "%s %s %s %s\n", workload, n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	if !traced {
		fmt.Fprintf(out, "%s error_rate %s ratio\n", workload,
			strconv.FormatFloat(float64(rep.Failed)/float64(max(rep.Attempted, 1)), 'g', -1, 64))
	}
}

// runAll runs every workload in a fresh child process per run, alternating
// the workload order between runs, writes each run's document, and pools
// the runs when there are several.
func runAll(opt simdperf.Options, runs int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simdperf:", err)
		return 1
	}
	if err := os.MkdirAll(opt.OutDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "simdperf:", err)
		return 1
	}
	var docs []simdperf.Document
	exit := 0
	for run := 0; run < runs; run++ {
		order := append([]simdperf.Workload(nil), simdperf.Workloads...)
		if run%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			rep, err := child(exe, w.Name, opt)
			if err != nil {
				fmt.Fprintf(os.Stderr, "simdperf: %s: %v\n", w.Name, err)
				exit = 1
				continue
			}
			printMetrics(os.Stdout, w.Name, rep, opt.Trace)
			if !rep.Correct {
				fmt.Fprintf(os.Stderr, "simdperf: %s: outputs failed verification\n", w.Name)
				exit = 1
			}
			d := simdperf.Document{Workload: w.Name, Seed: opt.Seed, Seconds: opt.Run.Seconds(),
				Trace: opt.Trace, Env: simdperf.CurrentEnv(), Report: rep}
			name := w.Name
			if opt.Trace {
				name += ".traced"
			}
			if runs > 1 {
				name += fmt.Sprintf(".run%d", run+1)
			}
			if err := writeJSON(filepath.Join(opt.OutDir, name+".json"), d); err != nil {
				fmt.Fprintln(os.Stderr, "simdperf:", err)
				exit = 1
			}
			docs = append(docs, d)
		}
	}
	if runs > 1 && len(docs) > 0 {
		sums, err := simdperf.Pool(docs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simdperf: refusing to pool:", err)
			return 1
		}
		simdperf.WriteSummaries(os.Stdout, sums)
	}
	return exit
}

// child runs one workload in a fresh process of this program and parses
// the report from the last line of its output. A run whose outputs failed
// verification still reports.
func child(exe, workload string, opt simdperf.Options) (simdperf.Report, error) {
	trace := "0"
	if opt.Trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(opt.Seed, 10),
		"-seconds", strconv.Itoa(int(opt.Run.Seconds())), "-trace", trace, "-out", opt.OutDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var exitErr *exec.ExitError
	if err != nil && !errors.As(err, &exitErr) {
		return simdperf.Report{}, fmt.Errorf("child run: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rep simdperf.Report
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); jerr != nil {
		if err != nil {
			return rep, fmt.Errorf("child run: %w", err)
		}
		return rep, fmt.Errorf("child run printed no report: %w", jerr)
	}
	return rep, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
