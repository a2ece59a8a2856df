package simdperf

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"simdstudy/internal/memo"
	"simdstudy/internal/obs"
	"simdstudy/internal/serve"
)

// Options configure one run of one workload.
type Options struct {
	Seed uint64
	// Run is the length of the timed phase.
	Run time.Duration
	// Trace selects the traced run, which reports the per-layer metrics
	// instead of the end-to-end ones.
	Trace bool
	// OutDir receives the traced run's Chrome trace and layer table.
	OutDir string
	// Log receives progress and the traced run's tables.
	Log io.Writer
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

// memoWarmRequests is how many requests fill a memoizing server's cache
// before the timed phase; enough that the cache has reached its budget
// and evicts.
const memoWarmRequests = 200

// warmW x warmH is the geometry of the set-up warm-up requests. Warming at
// VGA for every workload keeps set-up short next to a 5 Mpx timed phase.
const warmW, warmH = 640, 480

// Run executes one workload and reports its metrics.
func Run(w Workload, opt Options) (Report, error) {
	if opt.Log == nil {
		opt.Log = io.Discard
	}
	if err := checkKernelTable(); err != nil {
		return Report{}, err
	}
	if w.Server == nil {
		return runPaper(w, opt)
	}
	return runServing(w, opt)
}

// phase is the measured outcome of a timed phase.
type phase struct {
	results []Result
	probes  *probeLog
	elapsed time.Duration
	rssMB   float64 // peak resident set, read before verification
	allocs  uint64  // bytes allocated
	gcs     uint32
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timed runs one timed phase and takes the process counters around it.
func timed(probe *refProbe, run func(*probeLog) []Result) phase {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	p := phase{probes: newProbeLog(probe)}
	p.results = run(p.probes)
	p.elapsed = time.Since(p.probes.start)
	runtime.ReadMemStats(&m1)
	p.rssMB = peakRSSMB()
	p.allocs = m1.TotalAlloc - m0.TotalAlloc
	p.gcs = m1.NumGC - m0.NumGC
	return p
}

// normalized scales a time an operation took by the probe readings around
// it.
func (p phase) normalized(r Result, d time.Duration) float64 {
	return float64(d) * p.probes.factor(r.Start, r.Start+r.Latency)
}

// stages times the stages of a run for its progress log.
type stages struct {
	t     time.Time
	parts []string
}

func startStages() *stages { return &stages{t: time.Now()} }

// done ends a stage.
func (s *stages) done(stage string) {
	s.parts = append(s.parts, fmt.Sprintf("%s %.1fs", stage, time.Since(s.t).Seconds()))
	s.t = time.Now()
}

func (s *stages) print(log io.Writer, workload string, p phase) {
	fmt.Fprintf(log, "%s: %s; %d probe readings, median %.3f ms (%.3f ms is nominal)\n",
		workload, strings.Join(s.parts, ", "), len(p.probes.rs), p.probes.medianReading(), ms(probeNominal))
}

// sendHTTP sends one request through the server's handler in process and
// decodes the response.
func sendHTTP(h http.Handler, r Request, w, hgt, deadlineMS int) Result {
	rec := httptest.NewRecorder()
	req, err := http.NewRequest(http.MethodGet, processURL(r, w, hgt, deadlineMS), nil)
	if err != nil {
		return Result{Req: r, Bad: err.Error()}
	}
	h.ServeHTTP(rec, req)
	res := Result{Req: r, Code: rec.Code, Memo: rec.Header().Get("X-Memo")}
	if rec.Code != http.StatusOK {
		return res
	}
	var body struct {
		Checksum  string `json:"checksum"`
		ElapsedUS int64  `json:"elapsed_us"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		res.Bad = "undecodable response: " + err.Error()
		return res
	}
	res.ElapsedUS = body.ElapsedUS
	if res.Checksum, err = strconv.ParseUint(body.Checksum, 16, 64); err != nil {
		res.Bad = "bad checksum: " + err.Error()
	}
	return res
}

// setUpServer builds a server and sends one warm-up request per (kernel,
// ISA) through its handler.
func setUpServer(w Workload) (*serve.Server, error) {
	srv := serve.NewServer(w.Server())
	h := srv.Handler()
	for _, k := range w.Kernels {
		for _, isa := range w.ISAs {
			r := sendHTTP(h, Request{Kernel: k, ISA: isa, Seed: 1}, warmW, warmH, w.DeadlineMS)
			if r.Code != http.StatusOK || r.Bad != "" {
				srv.Close()
				return nil, fmt.Errorf("warm-up %s/%s: status %d %s", k, isa, r.Code, r.Bad)
			}
		}
	}
	return srv, nil
}

// timeSetUps runs setUp setupReps times between probe runs and returns
// the median set-up time in seconds, each normalized by the probe runs
// around it.
func timeSetUps(probe *refProbe, setUp func() error) (float64, error) {
	before := probe.read()
	var secs []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := setUp(); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		after := probe.read()
		secs = append(secs, d.Seconds()*float64(probeNominal)/(float64(before+after)/2))
		before = after
	}
	return Median(secs), nil
}

func runServing(w Workload, opt Options) (Report, error) {
	st := startStages()
	probe := newRefProbe()
	var srv *serve.Server
	setup, err := timeSetUps(probe, func() error {
		if srv != nil {
			srv.Close()
		}
		var err error
		srv, err = setUpServer(w)
		return err
	})
	if err != nil {
		return Report{}, err
	}
	defer srv.Close()
	st.done("set-up")

	h := srv.Handler()
	send := func(r Request) Result { return sendHTTP(h, r, w.Width, w.Height, w.DeadlineMS) }
	var warm []Result
	if srv.Memo() != nil {
		// A serving cache is warm; time it that way. The fill stream is
		// drawn like the timed one, from a seed of its own.
		for _, r := range w.Schedule(^opt.Seed)[:memoWarmRequests] {
			warm = append(warm, send(r))
		}
		st.done("cache fill")
	}
	sched := w.Schedule(opt.Seed)
	memo0 := srv.Memo().Stats()
	p := timed(probe, func(pl *probeLog) []Result {
		return runClosed(sched, w.RoundLen(), opt.Run, pl, send)
	})
	memo1 := srv.Memo().Stats()
	st.done("timed phase")

	bad, err := verifyServing(w.Width, w.Height, p.results, warm)
	if err != nil {
		return Report{}, err
	}
	st.done("verification")
	st.print(opt.Log, w.Name, p)
	rep := report(p, bad)
	if !opt.Trace {
		rep.Metrics = endToEnd(w, p, setup)
		return rep, nil
	}
	lm := layerMetricsZero()
	runLayerCounters(lm, p)
	servingCounters(lm, p, memo0, memo1)
	reg := obs.NewRegistry()
	tr, err := traceServing(reg, w, srv, sched, opt.Run/2)
	if err != nil {
		return Report{}, err
	}
	for k, v := range tr.metrics {
		lm[k] = v
	}
	fmt.Fprintf(opt.Log, "%s traced replay: %d requests, %.2f req/s serially (handler plus replay twin); untraced timed phase: %.2f req/s\n",
		w.Name, tr.replayed, tr.rate, float64(rep.Attempted)/p.elapsed.Seconds())
	return finishTrace(rep, tr.mismatches, reg, lm, w, opt)
}

// finishTrace runs the layer suite, writes the trace artifacts and reports
// the per-layer metrics.
func finishTrace(rep Report, mismatches int, reg *obs.Registry, lm map[string]float64, w Workload, opt Options) (Report, error) {
	if mismatches > 0 {
		rep.Correct = false
	}
	if err := runSuite(reg, lm, w); err != nil {
		return Report{}, err
	}
	if err := writeTrace(reg, opt.OutDir, w.Name, opt.Log); err != nil {
		return Report{}, err
	}
	rep.Metrics = withUnits(lm)
	return rep, nil
}

func runPaper(w Workload, opt Options) (Report, error) {
	st := startStages()
	in := newPaperInputs(w.Width, w.Height)
	probe := newRefProbe()
	setup, err := timeSetUps(probe, func() error {
		for _, b := range w.Kernels {
			for _, isa := range w.ISAs {
				if _, _, err := paperCall(in, Request{Kernel: b, ISA: isa, Seed: 1}, paperWorkers); err != nil {
					return fmt.Errorf("set-up %s/%s: %w", b, isa, err)
				}
			}
		}
		return nil
	})
	if err != nil {
		return Report{}, err
	}
	st.done("set-up")
	refs, err := paperReferences(w, in)
	if err != nil {
		return Report{}, err
	}
	st.done("references")
	sched := w.Schedule(opt.Seed)
	send := func(r Request) Result {
		tr, dst, err := paperCall(in, r, paperWorkers)
		if err != nil {
			return Result{Req: r, Code: 500, Bad: err.Error()}
		}
		return Result{Req: r, Code: 200, Trace: tr, Checksum: checksum(dst)}
	}
	p := timed(probe, func(pl *probeLog) []Result {
		return runClosed(sched, w.RoundLen(), opt.Run, pl, send)
	})
	st.done("timed phase")
	st.print(opt.Log, w.Name, p)
	rep := report(p, verifyPaper(p.results, refs))
	if !opt.Trace {
		rep.Metrics = endToEnd(w, p, setup)
		return rep, nil
	}
	lm := layerMetricsZero()
	runLayerCounters(lm, p)
	reg := obs.NewRegistry()
	tr, err := tracePaper(reg, in, sched, opt.Run/2)
	if err != nil {
		return Report{}, err
	}
	fmt.Fprintf(opt.Log, "%s traced replay: %d calls, %.2f calls/s traced, %.2f calls/s untraced twins; untraced timed phase: %.2f calls/s\n",
		w.Name, tr.replayed, tr.rate, tr.twinRate, float64(rep.Attempted)/p.elapsed.Seconds())
	return finishTrace(rep, tr.mismatches, reg, lm, w, opt)
}

// paperWorkers is the band count of the traced paper calls, so the
// per-band counter merge is on the measured path.
const paperWorkers = 2

func report(p phase, mismatches int) Report {
	rep := Report{Correct: mismatches == 0, Attempted: len(p.results)}
	for _, r := range p.results {
		if !r.OK() {
			rep.Failed++
		}
	}
	return rep
}

// tailShare is the slowest share of operations whose mean latency is the
// gated tail metric.
const tailShare = 0.1

// endToEnd computes the user-visible metrics of an untraced run, every
// time normalized by the probe readings around it. Latency statistics
// cover the successful operations; slo_attainment counts every failure as
// a miss. Throughput is over the time the successful operations took.
func endToEnd(w Workload, p phase, setup float64) map[string]Metric {
	var lat []float64
	var busy float64
	inSLO, ok := 0, 0
	for _, r := range p.results {
		if !r.OK() {
			continue
		}
		ok++
		l := p.normalized(r, r.Latency)
		lat = append(lat, l/1e6)
		busy += l
		if l <= float64(w.SLO) {
			inSLO++
		}
	}
	throughput, perOp := 0.0, 0.0
	if ok > 0 {
		throughput = float64(ok) / (busy / 1e9)
		perOp = ms(p.probes.normalizedCPU()) / float64(ok)
	}
	return withUnits(map[string]float64{
		"setup_s":              setup,
		"throughput_rps":       throughput,
		"latency_p50_ms":       Percentile(lat, 50),
		"latency_tail_mean_ms": TailMean(lat, tailShare),
		"slo_attainment":       float64(inSLO) / float64(max(len(p.results), 1)),
		"cpu_ms_per_op":        perOp,
		"peak_rss_mb":          p.rssMB,
	})
}

func withUnits(vals map[string]float64) map[string]Metric {
	out := make(map[string]Metric, len(vals))
	for k, v := range vals {
		out[k] = Metric{Value: v, Unit: unitOf(k)}
	}
	return out
}

func layerMetricsZero() map[string]float64 {
	m := map[string]float64{}
	for _, l := range LayerMetrics() {
		m[l.Name] = 0
	}
	return m
}

// runLayerCounters fills the counters every workload's timed phase yields:
// Go runtime allocation and collection per operation, and the median probe
// reading, which shows how fast the machine ran.
func runLayerCounters(lm map[string]float64, p phase) {
	n := float64(max(len(p.results), 1))
	lm["runtime.alloc_kb_per_op"] = float64(p.allocs) / 1024 / n
	lm["runtime.gc_per_100_ops"] = float64(p.gcs) * 100 / n
	lm["loadgen.probe_ms"] = p.probes.medianReading()
}

// servingCounters fills the serve and memo counters of the timed phase.
// Dispatch times are normalized like the latencies they split.
func servingCounters(lm map[string]float64, p phase, m0, m1 memo.Stats) {
	var dispatch, outside []float64
	for _, r := range p.results {
		if !r.OK() {
			continue
		}
		d := time.Duration(r.ElapsedUS) * time.Microsecond
		dispatch = append(dispatch, p.normalized(r, d)/1e6)
		outside = append(outside, p.normalized(r, r.Latency-d)/1e6)
	}
	lm["serve.dispatch_ms"] = Median(dispatch)
	lm["serve.outside_dispatch_ms_p50"] = Percentile(outside, 50)
	lm["serve.outside_dispatch_ms_p90"] = Percentile(outside, 90)
	if hits, miss := m1.Hits-m0.Hits, m1.Misses-m0.Misses; hits+miss > 0 {
		lm["memo.hit_ratio"] = float64(hits) / float64(hits+miss)
	}
	lm["memo.evictions_per_s"] = float64(m1.Evictions-m0.Evictions) / p.elapsed.Seconds()
}
