package simdperf

import "fmt"

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is one run's outcome, in the shape of the benchmark's final
// output line.
type Report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// EndToEnd describes one metric a user of the server sees. Bound is the
// share of the baseline median by which the metric may worsen before a
// change counts as a regression; BENCHMARK.json carries the same values.
type EndToEnd struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// EndToEndMetrics are reported by every workload's untraced run. Each
// bound is three times the widest spread that ten-seed calibration sets
// showed for the metric on any workload, rounded up to a multiple of 0.05
// and capped at 0.25 (see README.md). setup_s, which is not held to its
// spread, gets the largest; slo_attainment, which never moved, gets 0.05.
var EndToEndMetrics = []EndToEnd{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.2},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_mean_ms", "ms", "lower", 0.25},
	{"slo_attainment", "ratio", "higher", 0.05},
	{"cpu_ms_per_op", "ms", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// LayerMetric describes one per-layer metric of the traced run. README.md
// maps each to the end-to-end metric and workload it should move.
type LayerMetric struct {
	Name   string
	Unit   string
	Better string
}

// The kernels the per-kernel layer metrics range over.
var (
	layerKernels = []string{"threshold", "convert", "gaussian", "sobel", "edges", "canny", "median", "resize"}
	// parKernels are the 5 Mpx workload's kernels, whose band scaling the
	// par layer reports.
	parKernels = []string{"convert", "threshold", "gaussian", "sobel", "edges", "canny"}
)

// LayerMetrics are reported by every workload's traced run. A metric of a
// layer the workload bypasses reads 0.
func LayerMetrics() []LayerMetric {
	m := []LayerMetric{
		{"serve.parse_us", "us", "lower"},
		{"serve.unattributed_ms", "ms", "lower"},
		{"serve.dispatch_ms", "ms", "lower"},
		{"serve.outside_dispatch_ms_p50", "ms", "lower"},
		{"serve.outside_dispatch_ms_p90", "ms", "lower"},
		{"image.synth_ms", "ms", "lower"},
		{"memo.key_ms", "ms", "lower"},
		{"memo.do_hit_ms", "ms", "lower"},
		{"memo.hit_ratio", "ratio", "higher"},
		{"memo.evictions_per_s", "1/s", "lower"},
		{"integrity.summat_ms", "ms", "lower"},
	}
	for _, k := range layerKernels {
		for _, isa := range allISAs {
			m = append(m, LayerMetric{fmt.Sprintf("cv.kernel_ms.%s.%s", k, isa), "ms", "lower"})
		}
	}
	m = append(m,
		LayerMetric{"cv.guard_ratio", "ratio", "lower"},
		LayerMetric{"cv.fused_ratio.canny", "ratio", "lower"},
		LayerMetric{"cv.fused_ratio.edges", "ratio", "lower"},
	)
	for _, isa := range simdISAs {
		for _, k := range layerKernels {
			m = append(m, LayerMetric{fmt.Sprintf("%s.vs_scalar_ratio.%s", isa, k), "ratio", "lower"})
		}
	}
	for _, b := range paperBenches {
		for _, isa := range paperISAs {
			m = append(m, LayerMetric{fmt.Sprintf("trace.traced_ratio.%s.%s", b.name, isa), "ratio", "lower"})
		}
	}
	m = append(m,
		LayerMetric{"trace.ns_per_record", "ns", "lower"},
		LayerMetric{"par.run_overhead_us", "us", "lower"},
	)
	for _, k := range parKernels {
		m = append(m, LayerMetric{"par.scaling_ratio." + k, "ratio", "higher"})
	}
	m = append(m,
		LayerMetric{"par.getmat_us", "us", "lower"},
		LayerMetric{"runtime.alloc_kb_per_op", "KiB", "lower"},
		LayerMetric{"runtime.gc_per_100_ops", "count", "lower"},
		LayerMetric{"loadgen.probe_ms", "ms", "lower"},
	)
	return m
}

// unitOf returns the declared unit of a metric name.
func unitOf(name string) string {
	for _, e := range EndToEndMetrics {
		if e.Name == name {
			return e.Unit
		}
	}
	for _, l := range LayerMetrics() {
		if l.Name == name {
			return l.Unit
		}
	}
	return ""
}
