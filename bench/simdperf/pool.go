package simdperf

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// Summary is the spread of one (workload, metric) over pooled runs.
type Summary struct {
	Workload, Metric string
	Unit             string
	Runs             int
	Q1, Median, Q3   float64
	Spread           float64 // (Q3 - Q1) / Median
	Bound            float64 // the metric's regression bound; 0 if none
}

// Flagged reports a metric whose run-to-run spread exceeds its bound: its
// regressions cannot be told from noise at that bound.
func (s Summary) Flagged() bool { return s.Bound > 0 && s.Spread > s.Bound }

// Pool summarizes runs per (workload, metric). It refuses runs taken on
// different machines.
func Pool(docs []Document) ([]Summary, error) {
	if len(docs) == 0 {
		return nil, fmt.Errorf("no runs to pool")
	}
	for _, d := range docs[1:] {
		if err := docs[0].Env.SameMachine(d.Env); err != nil {
			return nil, err
		}
	}
	bounds := map[string]float64{}
	for _, e := range EndToEndMetrics {
		bounds[e.Name] = e.Bound
	}
	type wm struct{ w, m string }
	vals := map[wm][]float64{}
	units := map[wm]string{}
	for _, d := range docs {
		for name, m := range d.Metrics {
			k := wm{d.Workload, name}
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
	}
	out := make([]Summary, 0, len(vals))
	for k, xs := range vals {
		q1, med, q3 := Quartiles(xs)
		out = append(out, Summary{
			Workload: k.w, Metric: k.m, Unit: units[k], Runs: len(xs),
			Q1: q1, Median: med, Q3: q3, Spread: Spread(xs), Bound: bounds[k.m],
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		return out[i].Metric < out[j].Metric
	})
	return out, nil
}

// WriteSummaries prints the pooled table, marking flagged metrics.
func WriteSummaries(w io.Writer, sums []Summary) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\truns\tq1\tmedian\tq3\tunit\tspread\tbound\t")
	for _, s := range sums {
		flag := ""
		if s.Flagged() {
			flag = "SPREAD>BOUND"
		}
		bound := "-"
		if s.Bound > 0 {
			bound = fmt.Sprintf("%.3f", s.Bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.4g\t%.4g\t%.4g\t%s\t%.3f\t%s\t%s\n",
			s.Workload, s.Metric, s.Runs, s.Q1, s.Median, s.Q3, s.Unit, s.Spread, bound, flag)
	}
	tw.Flush()
}
