package simdperf

import (
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"simdstudy/internal/cv"
	"simdstudy/internal/trace"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 15, 40, 35, 20} // sorted: 15 20 35 40 50
	for _, c := range []struct{ p, want float64 }{
		{5, 15},   // rank ceil(0.25) = 1
		{30, 20},  // rank ceil(1.5) = 2
		{40, 20},  // rank 2 exactly
		{50, 35},  // rank ceil(2.5) = 3
		{90, 50},  // rank ceil(4.5) = 5
		{100, 50}, // rank 5
	} {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(empty) = %g, want 0", got)
	}
}

func TestTailMean(t *testing.T) {
	xs := []float64{50, 15, 40, 35, 20, 10, 45, 30, 25, 5} // sorted: 5 10 ... 50
	for _, c := range []struct{ share, want float64 }{
		{0.1, 50},                    // the largest value
		{0.25, (50 + 45 + 40) / 3.0}, // ceil(2.5) = 3 values
		{0.01, 50},                   // at least one value
		{1, 27.5},                    // the mean
	} {
		if got := TailMean(xs, c.share); got != c.want {
			t.Errorf("TailMean(%g) = %g, want %g", c.share, got, c.want)
		}
	}
	if got := TailMean(nil, 0.1); got != 0 {
		t.Errorf("TailMean(empty) = %g, want 0", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("Quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [1.0, 1.5, 2.0]
	q1, med, q3 = Quartiles([]float64{2, 1})
	if q1 != 1 || med != 1.5 || q3 != 2 {
		t.Errorf("Quartiles(1, 2) = %g %g %g, want 1 1.5 2", q1, med, q3)
	}
	if got := Spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != (8.25-2.75)/5.5 {
		t.Errorf("Spread = %g", got)
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range Workloads {
		a, b := w.Schedule(1), w.Schedule(1)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave two different schedules", w.Name)
		}
		if reflect.DeepEqual(a, w.Schedule(7)) {
			t.Errorf("%s: seeds 1 and 7 gave the same schedule", w.Name)
		}
	}
}

func TestBalancedRoundsHoldEveryPairOnce(t *testing.T) {
	w, err := WorkloadNamed("5mp_banded_fused")
	if err != nil {
		t.Fatal(err)
	}
	reqs := w.Schedule(3)
	n := w.RoundLen()
	for round := 0; round < 3; round++ {
		seen := map[[2]string]int{}
		for _, r := range reqs[round*n : (round+1)*n] {
			seen[[2]string{r.Kernel, r.ISA}]++
		}
		if len(seen) != n {
			t.Errorf("round %d holds %d distinct (kernel, ISA) pairs, want %d", round, len(seen), n)
		}
	}
}

// Every prefix of the Zipf sequence holds each key in proportion to its
// count over the whole sequence, whatever the seed: to within one at a
// given position, and within three at a given length, since the position
// a length reaches wanders with the phases by a few requests. A shuffle
// misses by tens on the frequent keys.
func TestZipfPrefixesHoldEveryKeyInProportion(t *testing.T) {
	const n, keys = 6144, 256
	total := map[uint64]int{}
	for _, k := range stratifiedZipf(n, keys, 1.1, rand.New(rand.NewSource(1))) {
		total[k]++
	}
	for _, seed := range []int64{1, 7} {
		seq := stratifiedZipf(n, keys, 1.1, rand.New(rand.NewSource(seed)))
		for _, prefix := range []int{100, 1650, 4000} {
			got := map[uint64]int{}
			for _, k := range seq[:prefix] {
				got[k]++
			}
			for k, c := range total {
				if want := float64(c*prefix) / n; math.Abs(float64(got[k])-want) > 3 {
					t.Errorf("seed %d: key %d appears %d times in the first %d, want %.2f within three", seed, k, got[k], prefix, want)
				}
			}
		}
	}
}

// The client times each request from its send, reads the probe between
// requests, and stops only at a round boundary once the run length is
// spent.
func TestClosedLoopRunsWholeRounds(t *testing.T) {
	const service = 20 * time.Millisecond
	slow := func(r Request) Result {
		time.Sleep(service)
		return Result{Req: r, Code: 200}
	}
	reqs := make([]Request, 30)
	pl := newProbeLog(newRefProbe())
	results := runClosed(reqs, 4, 130*time.Millisecond, pl, slow)
	if n := len(results); n < 8 || n%4 != 0 {
		t.Fatalf("ran %d requests, want whole rounds of 4 past the run length", n)
	}
	for i, r := range results {
		if r.Latency < service || (i > 0 && r.Start < results[i-1].Start+service) {
			t.Errorf("request %d: sent at %v after %v, latency %v", i, r.Start, results[max(i-1, 0)].Start, r.Latency)
		}
	}
	// One reading before the first request, at least one between requests
	// every probeEvery, and one after the last.
	if len(pl.rs) < 3 || pl.rs[0].at > results[0].Start || pl.rs[len(pl.rs)-1].at < results[len(results)-1].Start {
		t.Errorf("%d probe readings do not bracket the run", len(pl.rs))
	}
}

// An operation's time is scaled by the probe readings around it: by the
// mean of the last reading before it and the first after it.
func TestProbeFactor(t *testing.T) {
	const nominal = float64(probeNominal)
	ms := time.Millisecond
	l := &probeLog{rs: []reading{
		{at: 0, took: probeNominal},
		{at: 10 * ms, took: 2 * probeNominal},
		{at: 20 * ms, took: 2 * probeNominal, cpuStart: 50 * ms, cpuEnd: 51 * ms},
	}}
	for _, c := range []struct {
		a, b time.Duration
		want float64
	}{
		{1 * ms, 9 * ms, nominal / (1.5 * nominal)},  // between the first two readings
		{11 * ms, 19 * ms, nominal / (2 * nominal)},  // between the last two
		{1 * ms, 19 * ms, nominal / (1.5 * nominal)}, // across the middle reading
		{21 * ms, 30 * ms, nominal / (2 * nominal)},  // after the last: that reading alone
	} {
		if got := l.factor(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("factor(%v, %v) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
	// The process ran 50 ms of CPU between the second reading and the
	// third; both read twice nominal, so it counts as 25 ms.
	l.rs[1].cpuEnd = 0
	if got := l.normalizedCPU(); got != 25*ms {
		t.Errorf("normalizedCPU = %v, want 25ms", got)
	}
}

// Latencies, throughput and CPU time are normalized by the probe; an
// operation that ran while the probe read twice nominal counts half its
// measured time.
func TestEndToEndNormalizes(t *testing.T) {
	ms := time.Millisecond
	op := func(start, lat time.Duration) Result { return Result{Code: 200, Start: start, Latency: lat} }
	p := phase{
		results: []Result{op(1*ms, 10*ms), op(11*ms, 12*ms), op(31*ms, 40*ms), op(71*ms, 28*ms)},
		probes: &probeLog{rs: []reading{
			{at: 0, took: probeNominal},
			{at: 30 * ms, took: probeNominal, cpuStart: 30 * ms, cpuEnd: 30 * ms},
			{at: 100 * ms, took: 2 * probeNominal, cpuStart: 120 * ms},
		}},
	}
	// Normalized latencies: 10, 12 at nominal speed; 40 and 28 at the mean
	// of nominal and twice nominal, so 40/1.5 and 28/1.5.
	m := endToEnd(Workload{SLO: 20 * ms}, p, 0.5)
	for name, want := range map[string]float64{
		"latency_p50_ms":       12,
		"latency_tail_mean_ms": 40 / 1.5, // the slowest one of four
		"throughput_rps":       4 / ((10 + 12 + 68/1.5) / 1000),
		"cpu_ms_per_op":        (30 + 90/1.5) / 4,
		"slo_attainment":       0.75,
		"setup_s":              0.5,
	} {
		if got := m[name].Value; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}

func TestOracleCatchesFlippedByte(t *testing.T) {
	const w, h = 64, 48
	spec := serveKernels["threshold"]
	src := synthesize(spec.srcKind, w, h, 3)
	dst := spec.newDst(w, h)
	if err := spec.run(context.Background(), cv.NewOps(cv.ISANEON, nil), src, dst); err != nil {
		t.Fatal(err)
	}
	req := Request{Kernel: "threshold", ISA: "neon", Seed: 3}
	good := Result{Req: req, Code: 200, Checksum: checksum(dst)}
	dst.U8Pix[w*h/2] ^= 1
	flipped := Result{Req: req, Code: 200, Checksum: checksum(dst)}
	results := []Result{good, flipped}
	bad, err := verifyServing(w, h, results)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 1 || results[0].Bad != "" || results[1].Bad == "" {
		t.Errorf("verify marked %d (%q, %q), want only the flipped output", bad, results[0].Bad, results[1].Bad)
	}
}

func TestOracleCatchesChangedTraceSummary(t *testing.T) {
	wl := Workload{Kernels: []string{"BinThr", "SobFil"}, ISAs: []string{"neon", "sse2"}, Seeds: paperImages}
	in := newPaperInputs(64, 48)
	refs, err := paperReferences(wl, in)
	if err != nil {
		t.Fatal(err)
	}
	var results []Result
	for _, r := range []Request{{"BinThr", "neon", 2}, {"SobFil", "sse2", 5}, {"SobFil", "neon", 1}} {
		tr, dst, err := paperCall(in, r, paperWorkers)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, Result{Req: r, Code: 200, Trace: tr, Checksum: checksum(dst)})
	}
	if bad := verifyPaper(results, refs); bad != 0 {
		t.Fatalf("banded calls disagree with the serial references: %d marked, first %q", bad, results[0].Bad)
	}
	results[1].Trace.RecordN("vadd.i16", trace.SIMDALU, 1, 0)
	results[2].Checksum ^= 1
	if bad := verifyPaper(results, refs); bad != 2 || results[0].Bad != "" {
		t.Errorf("verify marked %d (%q %q %q), want the changed summary and checksum",
			bad, results[0].Bad, results[1].Bad, results[2].Bad)
	}
}

func TestPoolRefusesOtherMachines(t *testing.T) {
	a := Document{Workload: "vga_mixed", Env: Env{GOMAXPROCS: 2, NumCPU: 2, CPUModel: "x"},
		Report: Report{Metrics: map[string]Metric{"latency_p50_ms": {Value: 1, Unit: "ms"}}}}
	b := a
	b.Env.CPUModel = "y"
	if _, err := Pool([]Document{a, b}); err == nil {
		t.Error("pooled runs from two CPU models")
	}
	sums, err := Pool([]Document{a, a})
	if err != nil || len(sums) != 1 || sums[0].Runs != 2 {
		t.Errorf("Pool(same machine) = %v, %v", sums, err)
	}
}

// BENCHMARK.json at the repository root must describe the metrics and
// workloads this package reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if errors.Is(err, fs.ErrNotExist) {
		t.Skip("no BENCHMARK.json above the benchmark")
	}
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range Workloads {
		want = append(want, w.Name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	if len(bj.EndToEnd) != len(EndToEndMetrics) {
		t.Fatalf("%d end-to-end metrics, want %d", len(bj.EndToEnd), len(EndToEndMetrics))
	}
	for i, e := range EndToEndMetrics {
		got := bj.EndToEnd[i]
		if got.Name != e.Name || got.Unit != e.Unit || got.Better != e.Better || got.Bound != e.Bound {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, got, e)
		}
	}
	layers := LayerMetrics()
	if len(bj.PerLayer) != len(layers) {
		t.Fatalf("%d per-layer metrics, want %d", len(bj.PerLayer), len(layers))
	}
	for i, l := range layers {
		if got := bj.PerLayer[i]; got.Name != l.Name || got.Unit != l.Unit || got.Better != l.Better {
			t.Errorf("per_layer[%d] = %+v, want %s %s %s", i, got, l.Name, l.Unit, l.Better)
		}
	}
}
