package simdperf

import (
	"context"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
	"time"

	"simdstudy/internal/cv"
	"simdstudy/internal/image"
	"simdstudy/internal/integrity"
	"simdstudy/internal/memo"
	"simdstudy/internal/obs"
	"simdstudy/internal/par"
	"simdstudy/internal/serve"
)

// replayMax is how many requests of the schedule the traced run replays;
// the replay also stops once it has used half the run length.
const replayMax = 200

// replayOut is what a traced replay measured.
type replayOut struct {
	metrics    map[string]float64
	mismatches int
	replayed   int
	rate       float64 // replayed operations per second of replay
	twinRate   float64 // paper_trace: untraced twin calls per second
}

// guardPolicy is the server's guard policy: the default with the legacy
// kill-switch disabled, since breakers own terminal demotion.
func guardPolicy() cv.GuardPolicy {
	p := cv.DefaultGuardPolicy()
	p.KillAfter = -1
	return p
}

// span runs fn inside a child span of parent and returns its duration.
func span(parent *obs.Span, name string, fn func()) time.Duration {
	c := parent.Child(name)
	fn()
	return c.End()
}

// traceServing replays the first requests of the schedule serially. Each
// request runs once through the handler (span serve.handler) and once as a
// sibling replay.request whose children call each layer's public
// functions on the same inputs, along the path the handler took: a memo
// hit, or kernel dispatch (plus the memo store's checksum on a miss).
func traceServing(reg *obs.Registry, w Workload, srv *serve.Server, sched []Request, budget time.Duration) (replayOut, error) {
	cfg := w.Server()
	lim := serve.Limits{MaxPixels: cfg.MaxPixels, DefaultDeadline: 2 * time.Second, MaxDeadline: 10 * time.Second}
	if lim.MaxPixels <= 0 {
		lim.MaxPixels = 1 << 22
	}
	ops := map[string]*cv.Ops{}
	for name, isa := range isaByName {
		o := cv.NewOps(isa, nil)
		o.SetGuardPolicy(guardPolicy())
		o.SetBreakers(srv.Breakers())
		o.SetSupervisor(srv.Supervisor())
		o.SetObserver(srv.Registry())
		o.SetParallel(cfg.Parallel)
		o.SetFuse(cfg.Fuse)
		ops[name] = o
	}
	h := srv.Handler()
	mc := srv.Memo()
	params := cfg.Fuse.Signature()

	var parse, synth, keyT, hit, summat, unattr []float64
	var checked []Result
	start := time.Now()
	n := 0
	for _, r := range sched {
		if n == replayMax || time.Since(start) > budget {
			break
		}
		n++
		u := processURL(r, w.Width, w.Height, w.DeadlineMS)
		hs := reg.StartSpan("serve.handler", obs.L("kernel", r.Kernel), obs.L("isa", r.ISA))
		res := sendHTTP(h, r, w.Width, w.Height, w.DeadlineMS)
		hd := hs.End()
		checked = append(checked, res)
		if res.Code != 200 {
			continue
		}

		spec := serveKernels[r.Kernel]
		var (
			req     serve.Request
			src     *image.Mat
			key     memo.Key
			dst     *image.Mat
			pooled  bool
			runErr  error
			hitPath = res.Memo == "hit" || res.Memo == "coalesced"
		)
		rs := reg.StartSpan("replay.request", obs.L("kernel", r.Kernel), obs.L("isa", r.ISA), obs.L("memo", res.Memo))
		d := span(rs, "serve.parse", func() {
			q, err := url.Parse(u)
			if err == nil {
				req, err = serve.ParseRequest(q.Query(), lim)
			}
			runErr = err
		})
		parse = append(parse, float64(d.Microseconds()))
		if runErr != nil {
			rs.End()
			return replayOut{}, fmt.Errorf("replay parse %s: %w", u, runErr)
		}
		d = span(rs, "image.synth", func() { src = synthesize(spec.srcKind, req.Width, req.Height, req.Seed) })
		synth = append(synth, ms(d))
		if mc != nil {
			d = span(rs, "memo.key", func() { key = memo.KeyFor(spec.name, r.ISA, spec.sig+","+params, src) })
			keyT = append(keyT, ms(d))
		}
		ctx, cancel := context.WithTimeout(context.Background(), req.Deadline)
		if hitPath {
			dw, dh := spec.dstDims(w.Width, w.Height)
			dst, pooled = par.GetMatForOverwrite(dw, dh, spec.dstKind), true
			var out memo.Outcome
			d = span(rs, "memo.do", func() {
				out, runErr = mc.Do(ctx, key, dst, func(ctx context.Context) error {
					dst.Clear()
					return spec.run(ctx, ops[r.ISA], src, dst)
				})
			})
			if out == memo.Hit {
				hit = append(hit, ms(d))
			}
		} else {
			dst = spec.newDst(w.Width, w.Height)
			d = span(rs, "cv.kernel", func() { runErr = spec.run(ctx, ops[r.ISA], src, dst) })
			if mc != nil && runErr == nil {
				d = span(rs, "integrity.summat", func() { integrity.SumMat(dst, 0) })
				summat = append(summat, ms(d))
			}
		}
		cancel()
		rd := rs.End()
		if runErr != nil {
			return replayOut{}, fmt.Errorf("replay %s/%s: %w", r.Kernel, r.ISA, runErr)
		}
		unattr = append(unattr, ms(hd-rd))
		checked = append(checked, Result{Req: r, Code: 200, Checksum: checksum(dst)})
		if pooled {
			par.PutMat(dst)
		}
	}
	elapsed := time.Since(start)
	bad, err := verifyServing(w.Width, w.Height, checked)
	if err != nil {
		return replayOut{}, err
	}
	out := replayOut{
		mismatches: bad,
		replayed:   n,
		rate:       float64(n) / elapsed.Seconds(),
		metrics: map[string]float64{
			"serve.parse_us":        Median(parse),
			"serve.unattributed_ms": Median(unattr),
			"image.synth_ms":        Median(synth),
			"memo.key_ms":           Median(keyT),
			"memo.do_hit_ms":        Median(hit),
			"integrity.summat_ms":   Median(summat),
		},
	}
	return out, nil
}

// tracePaper replays the first calls of the paper schedule, each traced
// call (span trace.call) beside an untraced twin on the same input (span
// cv.untraced), so the table shows what counting costs per call.
func tracePaper(reg *obs.Registry, in paperInputs, sched []Request, budget time.Duration) (replayOut, error) {
	var out replayOut
	var tracedT, plainT time.Duration
	start := time.Now()
	for _, r := range sched {
		if out.replayed == replayMax || time.Since(start) > budget {
			break
		}
		out.replayed++
		sp := reg.StartSpan("trace.call", obs.L("bench", r.Kernel), obs.L("isa", r.ISA))
		_, dst, err := paperCall(in, r, paperWorkers)
		tracedT += sp.End()
		if err != nil {
			return out, fmt.Errorf("traced %s/%s: %w", r.Kernel, r.ISA, err)
		}
		sumT := checksum(dst)
		b, _ := paperBenchNamed(r.Kernel) // paperCall has accepted the name
		sp = reg.StartSpan("cv.untraced", obs.L("bench", r.Kernel), obs.L("isa", r.ISA))
		o := cv.NewOps(isaByName[r.ISA], nil)
		o.SetParallel(cv.ParallelConfig{Workers: paperWorkers})
		src := in.src(b, r.Seed)
		dst = image.NewMat(src.Width, src.Height, b.dstKind)
		err = b.run(o, src, dst)
		plainT += sp.End()
		if err != nil {
			return out, fmt.Errorf("untraced %s/%s: %w", r.Kernel, r.ISA, err)
		}
		if sumT != checksum(dst) {
			out.mismatches++
		}
	}
	out.rate = float64(out.replayed) / tracedT.Seconds()
	out.twinRate = float64(out.replayed) / plainT.Seconds()
	return out, nil
}

// layerRow is one line of the per-layer table: every span of one name.
type layerRow struct {
	name        string
	count       int
	total, self time.Duration
}

// layerTable aggregates spans by name. A span's self time is its duration
// minus the time its direct children cover; the shares are of the summed
// self time, which equals the summed root spans.
func layerTable(spans []obs.SpanRecord) ([]layerRow, time.Duration) {
	childT := map[int]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			childT[s.Parent] += s.End.Sub(s.Start)
		}
	}
	rows := map[string]*layerRow{}
	var all time.Duration
	for _, s := range spans {
		d := s.End.Sub(s.Start)
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			rows[s.Name] = r
		}
		r.count++
		r.total += d
		r.self += d - childT[s.ID]
		all += d - childT[s.ID]
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out, all
}

// replayCoverage is the share of replay.request time its children cover.
func replayCoverage(spans []obs.SpanRecord) float64 {
	var parent, child time.Duration
	ids := map[int]bool{}
	for _, s := range spans {
		if s.Name == "replay.request" {
			ids[s.ID] = true
			parent += s.End.Sub(s.Start)
		}
	}
	for _, s := range spans {
		if ids[s.Parent] {
			child += s.End.Sub(s.Start)
		}
	}
	if parent == 0 {
		return 0
	}
	return float64(child) / float64(parent)
}

func writeLayerTable(out io.Writer, workload string, spans []obs.SpanRecord) {
	rows, all := layerTable(spans)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "%s span\tcount\ttotal ms\tself ms\tshare\t\n", workload)
	for _, r := range rows {
		share := 0.0
		if all > 0 {
			share = float64(r.self) / float64(all)
		}
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%.1f%%\t\n", r.name, r.count, ms(r.total), ms(r.self), 100*share)
	}
	tw.Flush()
	if cov := replayCoverage(spans); cov > 0 {
		fmt.Fprintf(out, "%s replay.request children cover %.1f%% of its span\n", workload, 100*cov)
	}
}

// writeTrace writes the run's spans as a Chrome trace and its per-layer
// table into dir, and prints the table to log.
func writeTrace(reg *obs.Registry, dir, workload string, log io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.json"))
	if err != nil {
		return err
	}
	if err := reg.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	t, err := os.Create(filepath.Join(dir, workload+".layers.txt"))
	if err != nil {
		return err
	}
	spans := reg.Spans()
	writeLayerTable(io.MultiWriter(t, log), workload, spans)
	return t.Close()
}
