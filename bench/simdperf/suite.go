package simdperf

import (
	"context"
	"fmt"

	"simdstudy/internal/cv"
	"simdstudy/internal/image"
	"simdstudy/internal/obs"
	"simdstudy/internal/par"
	"simdstudy/internal/resilience"
	"simdstudy/internal/serve"
	"simdstudy/internal/super"
	"simdstudy/internal/trace"
)

// suiteReps is how many times each layer measurement repeats; the suite
// reports medians.
const suiteReps = 3

// Geometries of the layer suite. Kernel costs are taken at the paper's
// common 640x480 on every workload so they compare across workloads; band
// scaling at 1280x960, the paper's 1 Mpx size; fusion and scratch planes
// at 5 Mpx, where planes outgrow the last-level cache.
var (
	suiteVGA = image.Res03MP
	suite1MP = image.Res1MP
	suite5MP = image.Res5MP
)

// parNoops and getMatOps are the batch sizes of the par pool's fixed-cost
// timings.
const (
	parNoops  = 1000
	getMatOps = 20
)

// pairMedian times a and b alternately suiteReps times, each inside a
// span under parent, and returns their median times in milliseconds.
func pairMedian(parent *obs.Span, nameA, nameB string, a, b func() error) (float64, float64, error) {
	var ta, tb []float64
	for i := 0; i < suiteReps; i++ {
		for _, c := range []struct {
			name string
			fn   func() error
			out  *[]float64
		}{{nameA, a, &ta}, {nameB, b, &tb}} {
			var err error
			d := span(parent, c.name, func() { err = c.fn() })
			if err != nil {
				return 0, 0, fmt.Errorf("%s: %w", c.name, err)
			}
			*c.out = append(*c.out, ms(d))
		}
	}
	return Median(ta), Median(tb), nil
}

// runSuite times calls into each layer's public functions directly: the
// kernels on Ops configured like the workload's server pool (guarded,
// breakers, supervisor, observer, its band and fusion settings) and
// without the guard, traced against untraced paper calls, band scaling,
// fusion, and the par pool's fixed costs.
func runSuite(reg *obs.Registry, lm map[string]float64, w Workload) error {
	root := reg.StartSpan("suite", obs.L("workload", w.Name))
	defer root.End()
	cfg := serve.Config{}
	if w.Server != nil {
		cfg = w.Server()
	}
	ctx := context.Background()
	brk := resilience.NewBreakerSet(resilience.BreakerConfig{}, nil)
	sup := super.NewSupervisor(super.QuarantinePolicy{}, nil)
	pool := obs.NewRegistry()

	unguarded := map[string]float64{}
	var sumG, sumU float64
	for _, k := range layerKernels {
		spec := serveKernels[k]
		src := synthesize(spec.srcKind, suiteVGA.Width, suiteVGA.Height, 1)
		dst := spec.newDst(suiteVGA.Width, suiteVGA.Height)
		for _, isa := range allISAs {
			g := cv.NewOps(isaByName[isa], nil)
			g.SetGuardPolicy(guardPolicy())
			g.SetBreakers(brk)
			g.SetSupervisor(sup)
			g.SetObserver(pool)
			g.SetParallel(cfg.Parallel)
			g.SetFuse(cfg.Fuse)
			u := cv.NewOps(isaByName[isa], nil)
			u.SetParallel(cfg.Parallel)
			u.SetFuse(cfg.Fuse)
			sp := root.Child("cv.kernel_pair", obs.L("kernel", k), obs.L("isa", isa))
			tg, tu, err := pairMedian(sp, "cv.guarded", "cv.unguarded",
				func() error { return spec.run(ctx, g, src, dst) },
				func() error { return spec.run(ctx, u, src, dst) })
			sp.End()
			if err != nil {
				return fmt.Errorf("%s/%s: %w", k, isa, err)
			}
			lm[fmt.Sprintf("cv.kernel_ms.%s.%s", k, isa)] = tg
			unguarded[k+"."+isa] = tu
			sumG += tg
			sumU += tu
		}
	}
	lm["cv.guard_ratio"] = sumG / sumU
	for _, isa := range simdISAs {
		for _, k := range layerKernels {
			lm[fmt.Sprintf("%s.vs_scalar_ratio.%s", isa, k)] = unguarded[k+"."+isa] / unguarded[k+".scalar"]
		}
	}

	// Traced against untraced paper calls, banded as paper_trace runs them.
	var extraNS, records float64
	for _, b := range paperBenches {
		src := synthesize(b.srcKind, suiteVGA.Width, suiteVGA.Height, 1)
		dst := image.NewMat(suiteVGA.Width, suiteVGA.Height, b.dstKind)
		for _, isa := range paperISAs {
			var total uint64
			traced := func() error {
				tr := &trace.Counter{}
				o := cv.NewOps(isaByName[isa], tr)
				o.SetParallel(cv.ParallelConfig{Workers: paperWorkers})
				err := b.run(o, src, dst)
				total = tr.Total()
				return err
			}
			plain := func() error {
				o := cv.NewOps(isaByName[isa], nil)
				o.SetParallel(cv.ParallelConfig{Workers: paperWorkers})
				return b.run(o, src, dst)
			}
			sp := root.Child("trace.pair", obs.L("bench", b.name), obs.L("isa", isa))
			tt, tu, err := pairMedian(sp, "trace.traced", "trace.untraced", traced, plain)
			sp.End()
			if err != nil {
				return fmt.Errorf("%s/%s: %w", b.name, isa, err)
			}
			lm[fmt.Sprintf("trace.traced_ratio.%s.%s", b.name, isa)] = tt / tu
			extraNS += (tt - tu) * 1e6
			records += float64(total)
		}
	}
	lm["trace.ns_per_record"] = extraNS / records

	// Band scaling: one worker against two on the 5 Mpx workload's kernels.
	for _, k := range parKernels {
		spec := serveKernels[k]
		src := synthesize(spec.srcKind, suite1MP.Width, suite1MP.Height, 1)
		dst := spec.newDst(suite1MP.Width, suite1MP.Height)
		one := cv.NewOps(cv.ISANEON, nil)
		two := cv.NewOps(cv.ISANEON, nil)
		two.SetParallel(cv.ParallelConfig{Workers: 2})
		sp := root.Child("par.pair", obs.L("kernel", k))
		t1, t2, err := pairMedian(sp, "par.workers1", "par.workers2",
			func() error { return spec.run(ctx, one, src, dst) },
			func() error { return spec.run(ctx, two, src, dst) })
		sp.End()
		if err != nil {
			return fmt.Errorf("par %s: %w", k, err)
		}
		lm["par.scaling_ratio."+k] = t1 / t2
	}

	// Fusion: fused over staged sweeps at 5 Mpx, banded like the 5 Mpx
	// workload's server.
	src := synthesize(image.U8, suite5MP.Width, suite5MP.Height, 1)
	dst := image.NewMat(suite5MP.Width, suite5MP.Height, image.U8)
	for _, k := range []string{"canny", "edges"} {
		spec := serveKernels[k]
		staged := cv.NewOps(cv.ISANEON, nil)
		staged.SetParallel(cv.ParallelConfig{Workers: 2})
		fused := cv.NewOps(cv.ISANEON, nil)
		fused.SetParallel(cv.ParallelConfig{Workers: 2})
		fused.SetFuse(cv.FuseConfig{Enabled: true})
		sp := root.Child("fuse.pair", obs.L("kernel", k))
		tf, ts, err := pairMedian(sp, "fuse.fused", "fuse.staged",
			func() error { return spec.run(ctx, fused, src, dst) },
			func() error { return spec.run(ctx, staged, src, dst) })
		sp.End()
		if err != nil {
			return fmt.Errorf("fuse %s: %w", k, err)
		}
		lm["cv.fused_ratio."+k] = tf / ts
	}

	// The par pool's fixed costs.
	sp := root.Child("par.fixed")
	var runUS, getUS []float64
	for i := 0; i < suiteReps; i++ {
		d := span(sp, "par.run", func() {
			for j := 0; j < parNoops; j++ {
				par.Run(2, func(int) {})
			}
		})
		runUS = append(runUS, float64(d.Nanoseconds())/1e3/float64(parNoops))
		d = span(sp, "par.getmat", func() {
			for j := 0; j < getMatOps; j++ {
				par.PutMat(par.GetMat(suite5MP.Width, suite5MP.Height, image.U8))
			}
		})
		getUS = append(getUS, float64(d.Nanoseconds())/1e3/float64(getMatOps))
	}
	sp.End()
	lm["par.run_overhead_us"] = Median(runUS)
	lm["par.getmat_us"] = Median(getUS)
	return nil
}
